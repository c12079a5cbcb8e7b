//! The reference arm: one serial render per query, no cache, no
//! sharing, no identity computation — the bytes every measured output
//! must equal.

use v2v_container::VideoStream;
use v2v_core::{EngineConfig, V2vEngine};
use v2v_data::Database;
use v2v_exec::{Catalog, ExecOptions};
use v2v_spec::Spec;

pub fn render(catalog: &Catalog, database: &Database, spec: &Spec) -> Result<VideoStream, String> {
    let exec = ExecOptions {
        parallel: false,
        ..ExecOptions::default()
    };
    let mut engine = V2vEngine::new(catalog.clone())
        .with_database(database.clone())
        .with_config(EngineConfig {
            exec: exec.clone(),
            ..EngineConfig::default()
        });
    engine.bind(spec).map_err(|e| e.to_string())?;
    let (specialized, _) = engine.specialize(spec);
    let (plan, _) = engine.plan(&specialized).map_err(|e| e.to_string())?;
    v2v_exec::execute(&plan, engine.catalog(), &exec)
        .map(|(out, _, _)| out)
        .map_err(|e| e.to_string())
}

/// What a measured output is compared with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reference {
    pub digest: u64,
    pub frames: usize,
    pub bytes: u64,
}

pub fn reference(catalog: &Catalog, database: &Database, spec: &Spec) -> Reference {
    let out =
        render(catalog, database, spec).unwrap_or_else(|e| panic!("reference render failed: {e}"));
    Reference {
        digest: crate::digest::of(&out),
        frames: out.len(),
        bytes: out.byte_size(),
    }
}

/// `f` over every item, the items dealt round-robin to one thread per
/// core; results in item order. Each reference render is serial, but
/// independent renders need not queue behind each other.
pub fn spread<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let lanes = crate::sys::nproc().min(items.len()).max(1);
    let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                s.spawn(move || {
                    (lane..items.len())
                        .step_by(lanes)
                        .map(|i| (i, f(&items[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("reference render panicked") {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("every index is covered"))
        .collect()
}

/// References of many queries over one catalog.
pub fn references(catalog: &Catalog, database: &Database, specs: &[Spec]) -> Vec<Reference> {
    spread(specs, |spec| reference(catalog, database, spec))
}
