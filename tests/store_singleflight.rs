//! Concurrency contract of the shared [`ArtifactStore`]: a thundering
//! herd of sessions on one cold workload builds each pipeline stage
//! exactly once (single-flight dedup, proven via the store's obs
//! counters), and concurrent mixed traffic — project, sweep, explain —
//! is bit-identical to running the same requests serially.

use proptest::prelude::*;
use std::sync::Arc;
use xflow::{
    bgq, explain, generic, ArtifactStore, Axis, DesignSpace, InputSpec, ModeledApp, Scale, Session, StoreConfig,
    SweepOptions,
};

fn workload_source(name: &str) -> (String, InputSpec) {
    let w =
        xflow::xflow_workloads::all().into_iter().find(|w| w.name.eq_ignore_ascii_case(name)).expect("workload exists");
    (w.source.to_string(), w.inputs(Scale::Test))
}

/// M concurrent sessions over one store, all modeling the same cold
/// workload: exactly one build per stage (5 misses total), every other
/// lookup a hit or a single-flight wait, and every thread's projected
/// total bit-identical to a cold single-threaded run.
#[test]
fn thundering_herd_builds_each_stage_exactly_once() {
    const THREADS: usize = 8;
    let (src, inputs) = workload_source("cfd");

    let reference = {
        let app = ModeledApp::from_source(&src, &inputs).expect("model");
        app.project_on(&bgq()).total
    };

    let store = ArtifactStore::shared(StoreConfig::default());
    let totals: Vec<u64> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let store = store.clone();
                let src = &src;
                let inputs = &inputs;
                scope.spawn(move |_| {
                    let session = Session::with_store(store);
                    let app = session.model(src, inputs).expect("model");
                    app.project_on(&bgq()).total.to_bits()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no panics")).collect()
    })
    .expect("scope");

    for bits in &totals {
        assert_eq!(*bits, reference.to_bits(), "herd total must match the cold single-threaded projection");
    }

    let stats = store.stats();
    assert_eq!(stats.misses(), 5, "exactly one build per stage: {stats:?}");
    assert_eq!(stats.disk_hits(), 0);
    // every stage saw all THREADS lookups; the non-builders either hit
    // warm memory or waited on the in-flight build
    for (name, stage) in [
        ("parse", &stats.parse),
        ("profile", &stats.profile),
        ("translate", &stats.translate),
        ("bet", &stats.bet),
        ("plan", &stats.plan),
    ] {
        assert_eq!(stage.misses, 1, "stage {name} must build once: {stage:?}");
        assert_eq!(stage.hits + stage.misses, THREADS as u64, "stage {name} lookups: {stage:?}");
    }
}

/// Interleaved *different* workloads on one store still build once per
/// (workload, stage) pair and never cross-contaminate results.
#[test]
fn concurrent_distinct_workloads_share_the_store_without_interference() {
    let names = ["cfd", "srad", "chargei"];
    let sources: Vec<(String, InputSpec)> = names.iter().map(|n| workload_source(n)).collect();
    let reference: Vec<u64> = sources
        .iter()
        .map(|(src, inputs)| ModeledApp::from_source(src, inputs).unwrap().project_on(&bgq()).total.to_bits())
        .collect();

    let store = ArtifactStore::shared(StoreConfig::default());
    // 2 threads per workload so both the cross-workload and same-workload
    // interleavings happen
    let totals: Vec<(usize, u64)> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let store = store.clone();
                let sources = &sources;
                scope.spawn(move |_| {
                    let (src, inputs) = &sources[i % sources.len()];
                    let session = Session::with_store(store);
                    let app = session.model(src, inputs).expect("model");
                    (i % sources.len(), app.project_on(&bgq()).total.to_bits())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no panics")).collect()
    })
    .expect("scope");

    for (idx, bits) in totals {
        assert_eq!(bits, reference[idx], "workload {} projected differently under concurrency", names[idx]);
    }
    let stats = store.stats();
    assert_eq!(stats.misses(), 15, "3 workloads x 5 stages, each built once: {stats:?}");
}

/// One mixed request against one app: the payload each traffic kind
/// produces, reduced to comparable bits.
fn answer(kind: usize, app: &ModeledApp) -> Vec<u64> {
    match kind {
        // project
        0 => vec![app.project_on(&bgq()).total.to_bits()],
        // explain: the full JSON report, hashed into its bytes
        1 => explain(app, &bgq())
            .to_json()
            .into_bytes()
            .chunks(8)
            .map(|c| {
                let mut buf = [0u8; 8];
                buf[..c.len()].copy_from_slice(c);
                u64::from_le_bytes(buf)
            })
            .collect(),
        // sweep: every point's total in point order
        _ => {
            let space = DesignSpace::grid(generic(), vec![Axis::dram_bw(&[4.0, 16.0]), Axis::mlp(&[2.0, 8.0])]);
            space.sweep_opts(app, SweepOptions::with_threads(2)).points.iter().map(|p| p.total.to_bits()).collect()
        }
    }
}

proptest! {
    // Mixed concurrent traffic (project / explain / sweep in arbitrary
    // per-thread assignment) over one shared store answers exactly what a
    // serial pass over the same requests answers, bit for bit.
    #![proptest_config(ProptestConfig { cases: 6 })]
    #[test]
    fn concurrent_mixed_traffic_is_bit_identical_to_serial(
        kinds in proptest::collection::vec(0usize..3, 2..6),
    ) {
        let (src, inputs) = workload_source("srad");

        // serial reference: fresh store, same request kinds in order
        let serial: Vec<Vec<u64>> = {
            let store = ArtifactStore::shared(StoreConfig::default());
            kinds
                .iter()
                .map(|&k| {
                    let session = Session::with_store(store.clone());
                    let app = session.model(&src, &inputs).unwrap();
                    answer(k, &app)
                })
                .collect()
        };

        let store = ArtifactStore::shared(StoreConfig::default());
        let concurrent: Vec<Vec<u64>> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = kinds
                .iter()
                .map(|&k| {
                    let store = store.clone();
                    let src = &src;
                    let inputs = &inputs;
                    scope.spawn(move |_| {
                        let session = Session::with_store(store);
                        let app = session.model(src, inputs).unwrap();
                        answer(k, &app)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panics")).collect()
        })
        .expect("scope");

        prop_assert_eq!(&concurrent, &serial);
        prop_assert_eq!(store.stats().misses(), 5, "one build per stage regardless of traffic mix");
    }
}

/// The store type is genuinely shareable: `Arc<ArtifactStore>` crosses
/// threads, and sessions built over it are `Send + Sync` coordinators.
#[test]
fn store_and_session_are_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Arc<ArtifactStore>>();
    assert_send_sync::<Session>();
}
