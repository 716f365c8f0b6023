//! Named query catalog: registered sources with cached compiled plans.
//!
//! The serving tier admits sessions *by query*: a clinician registers a
//! named program once, and every admission, swap fault-in, or WAL
//! recovery of that application recompiles (or reuses) the same
//! canonical source. The catalog is the registry half of that story —
//! [`QueryCatalog::register`] compiles and caches, [`CatalogEntry::spec`]
//! stamps out query-backed [`SessionSpec`]s without recompiling.
//!
//! It is a binding compiler, not a second runtime: a compiled entry
//! contributes a [`SessionBinding`] (movement cadence, transport) and a
//! placement budget, and the session it binds runs on the one serving
//! window engine. The three built-in entries are the applications the
//! fleet and bench populations serve; their plans bind the same
//! movement cadence and transport flag as hand-set specs, so
//! query-admitted sessions produce decision digests byte-identical to
//! spec-constructed ones (pinned by fleet tests, the golden digests in
//! `tests/golden.rs`, and the `experiments query` smoke).

use crate::plan::{PlanConfig, PlanError, ProgramPlan, SessionBinding};
use crate::session::SessionSpec;
use std::collections::BTreeMap;
use std::time::Instant;

/// The plain seizure-watch pipeline every implant serves: detect, hash,
/// probe collisions over raw TDMA frames, DTW-confirm, stimulate.
pub const SEIZURE_WATCH: &str = "var seizure_watch = stream.window(wsize=4ms).seizure_detect()\
                                 .hash(dtw).ccheck().dtw().stim().call_runtime()";

/// Seizure watch with hash broadcasts on the reliable (seq/ACK)
/// transport — the lossy-network variant.
pub const SEIZURE_RELIABLE: &str = "var seizure_reliable = stream.window(wsize=4ms)\
                                    .seizure_detect().hash(dtw).ccheck(reliable).dtw().stim()\
                                    .call_runtime()";

/// The application mix: seizure watch plus a movement decode folded in
/// every 100 ms (25 serving windows).
pub const MOVEMENT_MIX: &str = "var movement_mix = stream.window(wsize=4ms).seizure_detect()\
                                .hash(dtw).ccheck().dtw().stim().call_runtime()\n\
                                var movement_decode = stream.window(wsize=100ms).sbp()\
                                .kf(kf_params).call_runtime()";

/// One registered query: its canonical source, cached compiled plan,
/// derived session binding, and how long compilation took.
#[derive(Debug)]
pub struct CatalogEntry {
    name: String,
    source: String,
    binding: SessionBinding,
    compile_us: u64,
    plan: ProgramPlan,
}

impl CatalogEntry {
    /// The entry's name: its serving chain's bound name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The canonical (re-printed) source.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The session binding the program pins down.
    pub fn binding(&self) -> SessionBinding {
        self.binding
    }

    /// Wall time the compile took, µs.
    pub fn compile_us(&self) -> u64 {
        self.compile_us
    }

    /// The cached compiled plan.
    pub fn plan(&self) -> &ProgramPlan {
        &self.plan
    }

    /// Stamps out a query-backed [`SessionSpec`] from this entry
    /// without recompiling: identity from `id`/`seed`, movement
    /// cadence and transport from the cached binding, the canonical
    /// source carried as the spec's query. Callers layer deployment,
    /// duration, priority, and fault knobs on top with the spec's
    /// builders.
    pub fn spec(&self, id: u64, seed: u64) -> SessionSpec {
        let mut spec = SessionSpec::new(id, seed).with_movement_every(self.binding.movement_every);
        spec.use_reliable_transport = self.binding.use_reliable_transport;
        spec.query = Some(self.source.clone());
        spec
    }
}

/// A registry of named queries with cached compiled plans.
#[derive(Debug, Default)]
pub struct QueryCatalog {
    entries: BTreeMap<String, CatalogEntry>,
}

impl QueryCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// A catalog preloaded with the three built-in applications:
    /// `seizure_watch`, `seizure_reliable`, and `movement_mix`.
    ///
    /// The [`PlanConfig`] argument is fieldless and ignored; it stays
    /// only because the serving benchmark (`perfbench`) calls
    /// `with_builtins(PlanConfig::default())`, and goes when that call
    /// does.
    pub fn with_builtins(_: PlanConfig) -> Self {
        let mut cat = Self::new();
        for source in [SEIZURE_WATCH, SEIZURE_RELIABLE, MOVEMENT_MIX] {
            cat.register(source).expect("built-in queries compile");
        }
        cat
    }

    /// Compiles `source` and registers it under its serving chain's
    /// name, returning the entry. Re-registering a name replaces the
    /// cached plan (the invalidation path for edited queries).
    ///
    /// # Errors
    ///
    /// Any [`PlanError`] from [`ProgramPlan::compile`].
    pub fn register(&mut self, source: &str) -> Result<&CatalogEntry, PlanError> {
        let started = Instant::now();
        let plan = ProgramPlan::compile(source)?;
        let compile_us = started.elapsed().as_micros() as u64;
        let name = plan.name().to_string();
        let entry = CatalogEntry {
            name: name.clone(),
            source: plan.source().to_string(),
            binding: plan.binding(),
            compile_us,
            plan,
        };
        self.entries.insert(name.clone(), entry);
        Ok(&self.entries[&name])
    }

    /// Looks up a registered entry.
    pub fn get(&self, name: &str) -> Option<&CatalogEntry> {
        self.entries.get(name)
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// How many queries are registered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in name order.
    pub fn entries(&self) -> impl Iterator<Item = &CatalogEntry> {
        self.entries.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_register_under_their_serving_chain_names() {
        let cat = QueryCatalog::with_builtins(PlanConfig);
        assert_eq!(
            cat.names(),
            ["movement_mix", "seizure_reliable", "seizure_watch"]
        );
        let watch = cat.get("seizure_watch").unwrap();
        assert_eq!(
            watch.binding(),
            SessionBinding {
                movement_every: 0,
                use_reliable_transport: false,
            }
        );
        let reliable = cat.get("seizure_reliable").unwrap();
        assert!(reliable.binding().use_reliable_transport);
        let mix = cat.get("movement_mix").unwrap();
        assert_eq!(mix.binding().movement_every, 25);
        assert!(!mix.binding().use_reliable_transport);
    }

    #[test]
    fn specs_carry_binding_and_canonical_query() {
        let cat = QueryCatalog::with_builtins(PlanConfig);
        let mix = cat.get("movement_mix").unwrap();
        let spec = mix.spec(7, 0xabc);
        assert_eq!(spec.id, 7);
        assert_eq!(spec.seed, 0xabc);
        assert_eq!(spec.movement_every, 25);
        assert!(!spec.use_reliable_transport);
        let query = spec.query.as_deref().unwrap();
        assert_eq!(query, mix.source());
        // The carried source is canonical: recompiling reproduces it.
        let again = ProgramPlan::compile(query).unwrap();
        assert_eq!(again.source(), query);
    }

    #[test]
    fn reregistering_replaces_the_cached_plan() {
        let mut cat = QueryCatalog::new();
        cat.register(SEIZURE_WATCH).unwrap();
        assert!(
            !cat.get("seizure_watch")
                .unwrap()
                .binding()
                .use_reliable_transport
        );
        let edited = SEIZURE_WATCH.replace(".ccheck()", ".ccheck(reliable)");
        cat.register(&edited).unwrap();
        assert_eq!(cat.len(), 1);
        assert!(
            cat.get("seizure_watch")
                .unwrap()
                .binding()
                .use_reliable_transport
        );
    }

    /// The equivalence the whole compilation path rests on: for every
    /// built-in app and a spread of seeds, a session built from the
    /// catalog's compiled plan decides byte-identically to one whose
    /// knobs were set by hand.
    #[test]
    fn every_builtin_digests_like_its_hand_built_twin_across_seeds() {
        let cat = QueryCatalog::with_builtins(PlanConfig);
        for seed in [0x1u64, 0xabc, 0xdead_beef] {
            for entry in cat.entries() {
                let mut queried =
                    crate::session::Session::new(entry.spec(3, seed).with_duration_s(0.2));
                let binding = entry.binding();
                let mut hand_spec = crate::session::SessionSpec::new(3, seed)
                    .with_duration_s(0.2)
                    .with_movement_every(binding.movement_every);
                hand_spec.use_reliable_transport = binding.use_reliable_transport;
                let mut hand = crate::session::Session::new(hand_spec);
                while !queried.step().done {}
                while !hand.step().done {}
                assert_eq!(
                    queried.decision_digest(),
                    hand.decision_digest(),
                    "{} diverged at seed {seed:#x}",
                    entry.name()
                );
            }
        }
    }

    #[test]
    fn bad_queries_do_not_register() {
        let mut cat = QueryCatalog::new();
        let err = cat
            .register("var q = stream.window(wsize=4ms).ccheck()")
            .unwrap_err();
        assert!(matches!(err, PlanError::Misplaced { .. }));
        assert!(cat.is_empty());
    }
}
