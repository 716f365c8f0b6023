//! Query → plan compilation: the binding compiler between the language
//! and the serving fleet.
//!
//! `scalo-query` lowers fluent source into an untyped operator [`Dag`];
//! this module takes that DAG the rest of the way to what a serving
//! tier admits and budgets by. Like the paper's compiler, it places a
//! query rather than interpreting it: the window path that runs is the
//! window engine ([`crate::cohort`], stepped by
//! [`crate::session::Session::step_after`]), and a plan
//! only decides how a session is bound to it.
//!
//! 1. **Validate** the chain into typed operator nodes — window first,
//!    hash before collision-check, collision-check before DTW confirm,
//!    a feature stage before any decoder, `call_runtime` terminal.
//! 2. **Role and cadence**: a chain carrying detection stages is the
//!    serving chain and must run at the 4 ms seizure cadence; a chain
//!    carrying a decoder is the movement mix and runs every N serving
//!    windows.
//! 3. **Derive the session binding** ([`SessionBinding`]): the
//!    movement-mix cadence and whether hash broadcasts ride the
//!    reliable transport.
//! 4. **Budget** the placement: each chain's serial worst-case PE
//!    latency ([`WindowPlan::predicted_window_ms`]) and the `scalo-sched`
//!    seizure ILP ([`resolve_budget`]), so admission can refuse queries
//!    whose fixed overheads alone blow the per-node power limit.
//!
//! Compilation depends on the source alone: two compilations of one
//! program bind identically, and the canonical re-printed source
//! recompiles to itself.

use crate::apps::seizure::WINDOW_US;
use scalo_query::{compile_program, Dag, Operator, QueryError};
use scalo_sched::map::pes_for_dag;
use scalo_sched::seizure::{solve, Priorities, SeizureSchedule};
use scalo_sched::Scenario;
use std::fmt;

/// The serving cadence every plan is scheduled against: the seizure
/// app's 4 ms window.
pub const SERVING_WINDOW_MS: f64 = WINDOW_US as f64 / 1_000.0;

/// Why a query could not be compiled to a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The source failed to lex, parse, or lower.
    Query(QueryError),
    /// A chain never collected samples into windows.
    MissingWindow {
        /// The chain's bound name.
        chain: String,
    },
    /// A chain's window size cannot be served on the 4 ms cadence: the
    /// serving chain must run *at* [`SERVING_WINDOW_MS`] and auxiliary
    /// chains at a positive integer multiple of it.
    CadenceMismatch {
        /// The chain's bound name.
        chain: String,
        /// The offending window size, ms.
        window_ms: f64,
    },
    /// An operator appears somewhere its inputs do not exist.
    Misplaced {
        /// The chain's bound name.
        chain: String,
        /// The operator, as written in source.
        op: &'static str,
        /// What the validator wanted instead.
        message: &'static str,
    },
    /// A chain mixes detection and decode stages; roles are exclusive.
    AmbiguousRole {
        /// The chain's bound name.
        chain: String,
    },
    /// The program's chain mix is unservable (no serving chain, or
    /// more than one of a kind).
    BadProgram {
        /// What is wrong with the mix.
        message: String,
    },
    /// The seizure ILP found no feasible placement at this deployment
    /// and power budget.
    Infeasible {
        /// Implants in the deployment.
        nodes: usize,
        /// Per-node power budget, mW.
        power_limit_mw: f64,
    },
}

impl From<QueryError> for PlanError {
    fn from(e: QueryError) -> Self {
        PlanError::Query(e)
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Query(e) => write!(f, "query error: {e}"),
            Self::MissingWindow { chain } => {
                write!(f, "chain `{chain}` never windows the stream")
            }
            Self::CadenceMismatch { chain, window_ms } => write!(
                f,
                "chain `{chain}` windows at {window_ms} ms, which does not sit on the \
                 {SERVING_WINDOW_MS} ms serving cadence"
            ),
            Self::Misplaced { chain, op, message } => {
                write!(f, "chain `{chain}`: `{op}` {message}")
            }
            Self::AmbiguousRole { chain } => write!(
                f,
                "chain `{chain}` mixes seizure-detection and movement-decode stages"
            ),
            Self::BadProgram { message } => write!(f, "unservable program: {message}"),
            Self::Infeasible {
                nodes,
                power_limit_mw,
            } => write!(
                f,
                "no feasible placement for {nodes} nodes at {power_limit_mw} mW/node"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// What a validated chain is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainRole {
    /// The serving chain: seizure detection at the 4 ms cadence.
    Seizure,
    /// An auxiliary decode chain folded into the serving loop every
    /// N windows (the movement mix).
    Movement,
}

/// A typed operator node: what the untyped [`Operator`] becomes once
/// the validator has checked its inputs exist. Stream-shaping operators
/// (`map`, non-detect `select`) type to nothing — they shape the query,
/// not the window path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TypedNode {
    Detect,
    Bandpass,
    FftFeatures,
    SpikeBandPower,
    XcorFeatures,
    SpikeDetect,
    Hash,
    CollisionProbe,
    DtwConfirm,
    ClassifySvm,
    ClassifyNn,
    ClassifyKf,
    Stim,
    Emit,
}

impl TypedNode {
    /// The stage's name, for reports and tests.
    fn name(self) -> &'static str {
        match self {
            Self::Detect => "seizure_detect",
            Self::Bandpass => "bandpass",
            Self::FftFeatures => "fft_features",
            Self::SpikeBandPower => "spike_band_power",
            Self::XcorFeatures => "xcor_features",
            Self::SpikeDetect => "spike_detect",
            Self::Hash => "hash",
            Self::CollisionProbe => "collision_probe",
            Self::DtwConfirm => "dtw_confirm",
            Self::ClassifySvm => "classify_svm",
            Self::ClassifyNn => "classify_nn",
            Self::ClassifyKf => "classify_kf",
            Self::Stim => "stim",
            Self::Emit => "emit",
        }
    }
}

/// A fieldless placeholder: compiling a program depends on its source
/// alone, so a plan has no options. It remains only as the argument of
/// [`QueryCatalog::with_builtins`](crate::catalog::QueryCatalog::with_builtins),
/// which the serving benchmark (`perfbench`) calls with
/// `PlanConfig::default()`; it is removed together with that call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanConfig;

/// One chain compiled: its validated stage list, role, cadence, and
/// predicted fabric latency.
#[derive(Debug)]
pub struct WindowPlan {
    name: String,
    role: ChainRole,
    window_ms: f64,
    cadence: usize,
    predicted_window_ms: f64,
    nodes: Vec<TypedNode>,
}

impl WindowPlan {
    /// Validates one lowered chain and derives its role and cadence.
    ///
    /// # Errors
    ///
    /// Any [`PlanError`] except `Query`/`BadProgram`/`Infeasible`.
    pub fn compile(dag: &Dag) -> Result<Self, PlanError> {
        let (window_ms, nodes) = typecheck(dag)?;
        let role = chain_role(dag, &nodes)?;
        let cadence = cadence_of(dag, role, window_ms)?;
        let predicted_window_ms = pes_for_dag(dag)
            .into_iter()
            .map(|pe| scalo_hw::pe::spec(pe).latency.worst_ms(SERVING_WINDOW_MS))
            .sum();
        Ok(Self {
            name: dag.name.clone(),
            role,
            window_ms,
            cadence,
            predicted_window_ms,
            nodes,
        })
    }

    /// The chain's bound name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// What the chain is for.
    pub fn role(&self) -> ChainRole {
        self.role
    }

    /// The chain's window size, ms.
    pub fn window_ms(&self) -> f64 {
        self.window_ms
    }

    /// How often the chain runs, in 4 ms serving windows (1 for the
    /// serving chain itself).
    pub fn cadence(&self) -> usize {
        self.cadence
    }

    /// Serial worst-case PE latency of the chain's fabric mapping, ms —
    /// what admission compares against the response deadline.
    pub fn predicted_window_ms(&self) -> f64 {
        self.predicted_window_ms
    }

    /// The validated stage names in chain order, for reports.
    pub fn step_names(&self) -> Vec<&'static str> {
        self.nodes.iter().map(|n| n.name()).collect()
    }
}
/// First pass: untyped operators → typed nodes, with input/order
/// checking. Returns the chain's window size alongside the nodes.
fn typecheck(dag: &Dag) -> Result<(f64, Vec<TypedNode>), PlanError> {
    let chain = || dag.name.clone();
    let misplaced = |op: &'static str, message: &'static str| PlanError::Misplaced {
        chain: chain(),
        op,
        message,
    };
    let mut window_ms: Option<f64> = None;
    let mut nodes = Vec::with_capacity(dag.operators.len());
    let mut hashed = false;
    let mut checked = false;
    let mut detected = false;
    let mut confirmed = false;
    let mut featured = false;
    let mut classified = false;
    let mut emitted = false;
    for op in &dag.operators {
        if emitted {
            return Err(misplaced("call_runtime", "must terminate the chain"));
        }
        // Everything below the match is a compute stage; stream shaping
        // (`map`, plain `select`) passes through without a typed node.
        let typed = match op {
            Operator::Window { ms } => {
                if window_ms.is_some() {
                    return Err(misplaced("window", "appears twice; chains take one window"));
                }
                window_ms = Some(*ms);
                continue;
            }
            Operator::Map { .. } => continue,
            Operator::Select {
                seizure_detect: false,
                ..
            } => continue,
            Operator::Select { .. } => {
                detected = true;
                TypedNode::Detect
            }
            Operator::Bbf { .. } => TypedNode::Bandpass,
            Operator::Sbp => {
                featured = true;
                TypedNode::SpikeBandPower
            }
            Operator::Fft => {
                featured = true;
                TypedNode::FftFeatures
            }
            Operator::Xcor => {
                featured = true;
                TypedNode::XcorFeatures
            }
            Operator::SpikeDetect => TypedNode::SpikeDetect,
            Operator::Hash { .. } => {
                hashed = true;
                TypedNode::Hash
            }
            Operator::CollisionCheck { .. } => {
                if !hashed {
                    return Err(misplaced("ccheck", "needs a `hash` stage to probe"));
                }
                checked = true;
                TypedNode::CollisionProbe
            }
            Operator::Dtw => {
                if !checked {
                    return Err(misplaced(
                        "dtw",
                        "confirms collision-check candidates; add `ccheck` first",
                    ));
                }
                confirmed = true;
                TypedNode::DtwConfirm
            }
            Operator::Svm | Operator::Nn | Operator::Kf { .. } => {
                if !featured {
                    return Err(misplaced(
                        "decoder",
                        "classifies features; add a feature stage (sbp/fft/xcor) first",
                    ));
                }
                if classified {
                    return Err(misplaced("decoder", "appears twice; chains carry one"));
                }
                classified = true;
                match op {
                    Operator::Svm => TypedNode::ClassifySvm,
                    Operator::Nn => TypedNode::ClassifyNn,
                    _ => TypedNode::ClassifyKf,
                }
            }
            Operator::Stim => {
                if !detected && !confirmed {
                    return Err(misplaced("stim", "needs a detection stage upstream"));
                }
                TypedNode::Stim
            }
            Operator::CallRuntime => {
                emitted = true;
                TypedNode::Emit
            }
        };
        nodes.push(typed);
    }
    let window_ms = window_ms.ok_or_else(|| PlanError::MissingWindow { chain: chain() })?;
    if nodes.is_empty() {
        return Err(PlanError::BadProgram {
            message: format!(
                "chain `{}` windows the stream but computes nothing",
                dag.name
            ),
        });
    }
    Ok((window_ms, nodes))
}

/// Second pass: the chain's role, from which stages it carries.
fn chain_role(dag: &Dag, nodes: &[TypedNode]) -> Result<ChainRole, PlanError> {
    let seizure = nodes.iter().any(|n| {
        matches!(
            n,
            TypedNode::Detect
                | TypedNode::Hash
                | TypedNode::CollisionProbe
                | TypedNode::DtwConfirm
                | TypedNode::Stim
        )
    });
    let movement = nodes.iter().any(|n| {
        matches!(
            n,
            TypedNode::ClassifySvm | TypedNode::ClassifyNn | TypedNode::ClassifyKf
        )
    });
    match (seizure, movement) {
        (true, true) => Err(PlanError::AmbiguousRole {
            chain: dag.name.clone(),
        }),
        (true, false) => Ok(ChainRole::Seizure),
        (false, true) => Ok(ChainRole::Movement),
        (false, false) => Err(PlanError::BadProgram {
            message: format!(
                "chain `{}` has neither a detection nor a decode stage",
                dag.name
            ),
        }),
    }
}

/// Third pass: cadence in serving windows. The serving chain must sit
/// exactly on the 4 ms cadence; auxiliary chains on a positive integer
/// multiple of it (this is where Listing 1's 50 ms movement chain is
/// rejected with a precise error — 50/4 is not integral).
fn cadence_of(dag: &Dag, role: ChainRole, window_ms: f64) -> Result<usize, PlanError> {
    let mismatch = || PlanError::CadenceMismatch {
        chain: dag.name.clone(),
        window_ms,
    };
    match role {
        ChainRole::Seizure => {
            if window_ms != SERVING_WINDOW_MS {
                return Err(mismatch());
            }
            Ok(1)
        }
        ChainRole::Movement => {
            let ratio = window_ms / SERVING_WINDOW_MS;
            if ratio < 1.0 || ratio.fract() != 0.0 {
                return Err(mismatch());
            }
            Ok(ratio as usize)
        }
    }
}

/// The session-level knobs a compiled program pins down: everything a
/// [`crate::session::SessionSpec`] needs beyond its identity fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionBinding {
    /// Movement-mix cadence in serving windows (0 = none).
    pub movement_every: usize,
    /// Whether hash broadcasts ride the reliable transport.
    pub use_reliable_transport: bool,
}

/// A whole program compiled: one [`WindowPlan`] per chain, the derived
/// session binding, and the canonical re-printed source (whose
/// recompilation is the identity — pinned by proptest in `scalo-query`).
#[derive(Debug)]
pub struct ProgramPlan {
    source: String,
    chains: Vec<WindowPlan>,
    binding: SessionBinding,
}

impl ProgramPlan {
    /// Compiles fluent source into a program plan.
    ///
    /// # Errors
    ///
    /// Any [`PlanError`]: the source must lex/parse/lower, every chain
    /// must validate, and the mix must be exactly one serving chain
    /// plus at most one movement chain.
    pub fn compile(source: &str) -> Result<Self, PlanError> {
        let dags = compile_program(source)?;
        let mut chains = Vec::with_capacity(dags.len());
        for dag in &dags {
            chains.push(WindowPlan::compile(dag)?);
        }
        let seizure = chains
            .iter()
            .filter(|c| c.role() == ChainRole::Seizure)
            .count();
        if seizure != 1 {
            return Err(PlanError::BadProgram {
                message: format!(
                    "programs serve exactly one seizure-detection chain (found {seizure})"
                ),
            });
        }
        let movement: Vec<&WindowPlan> = chains
            .iter()
            .filter(|c| c.role() == ChainRole::Movement)
            .collect();
        if movement.len() > 1 {
            return Err(PlanError::BadProgram {
                message: format!(
                    "programs fold in at most one movement chain (found {})",
                    movement.len()
                ),
            });
        }
        let reliable = dags
            .iter()
            .flat_map(|d| &d.operators)
            .any(|op| matches!(op, Operator::CollisionCheck { reliable: true }));
        let binding = SessionBinding {
            movement_every: movement.first().map_or(0, |c| c.cadence()),
            use_reliable_transport: reliable,
        };
        let source = dags
            .iter()
            .map(Dag::to_query)
            .collect::<Vec<_>>()
            .join("\n");
        Ok(Self {
            source,
            chains,
            binding,
        })
    }

    /// The canonical (re-printed) source; recompiling it reproduces
    /// this plan exactly.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The program's name: its serving chain's bound name.
    pub fn name(&self) -> &str {
        self.serving_chain().name()
    }

    /// The session-level binding the program pins down.
    pub fn binding(&self) -> SessionBinding {
        self.binding
    }

    /// Every compiled chain, serving chain first among equals.
    pub fn chains(&self) -> &[WindowPlan] {
        &self.chains
    }

    /// The 4 ms serving chain.
    pub fn serving_chain(&self) -> &WindowPlan {
        self.chains
            .iter()
            .find(|c| c.role() == ChainRole::Seizure)
            .expect("ProgramPlan::compile guarantees one serving chain")
    }
}

/// The solved placement budget for a compiled program on a deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleBudget {
    /// The seizure ILP's solved flows.
    pub schedule: SeizureSchedule,
    /// Serial worst-case PE latency of the serving chain, ms.
    pub predicted_window_ms: f64,
}

/// Re-solves the seizure ILP for `plan` on a `nodes`-implant deployment
/// under `power_limit_mw` per node — the admission gate for
/// query-backed sessions and the re-solve step of hot reconfiguration.
///
/// # Errors
///
/// [`PlanError::Infeasible`] when the solver finds no placement (fixed
/// overheads alone exceed the budget).
///
/// # Panics
///
/// Panics if `nodes` is zero or `power_limit_mw` is not positive
/// (admission validates deployments before budgeting them).
pub fn resolve_budget(
    plan: &ProgramPlan,
    nodes: usize,
    power_limit_mw: f64,
) -> Result<ScheduleBudget, PlanError> {
    let scenario = Scenario::new(nodes, power_limit_mw);
    let schedule = solve(&scenario, Priorities::equal()).map_err(|_| PlanError::Infeasible {
        nodes,
        power_limit_mw,
    })?;
    Ok(ScheduleBudget {
        schedule,
        predicted_window_ms: plan.serving_chain().predicted_window_ms(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEIZURE: &str = "var watch = stream.window(wsize=4ms).seizure_detect().hash(dtw)\
                           .ccheck().dtw().stim().call_runtime()";
    const MIX: &str = "var watch = stream.window(wsize=4ms).seizure_detect().hash(dtw)\
                       .ccheck(reliable).dtw().stim().call_runtime()\n\
                       var decode = stream.window(wsize=100ms).sbp().kf(kf_params).call_runtime()";

    #[test]
    fn seizure_chain_compiles_to_ordered_steps() {
        let plan = ProgramPlan::compile(SEIZURE).unwrap();
        assert_eq!(plan.name(), "watch");
        assert_eq!(plan.binding().movement_every, 0);
        assert!(!plan.binding().use_reliable_transport);
        let serving = plan.serving_chain();
        assert_eq!(serving.cadence(), 1);
        assert_eq!(
            serving.step_names(),
            [
                "seizure_detect",
                "hash",
                "collision_probe",
                "dtw_confirm",
                "stim",
                "emit"
            ]
        );
        assert!(serving.predicted_window_ms() > 0.0);
    }

    #[test]
    fn program_mix_derives_session_binding() {
        let plan = ProgramPlan::compile(MIX).unwrap();
        assert_eq!(plan.chains().len(), 2);
        assert_eq!(
            plan.binding(),
            SessionBinding {
                movement_every: 25,
                use_reliable_transport: true,
            }
        );
        // Canonical source recompiles to the same binding.
        let again = ProgramPlan::compile(plan.source()).unwrap();
        assert_eq!(again.binding(), plan.binding());
        assert_eq!(again.source(), plan.source());
    }

    #[test]
    fn every_decoder_shape_compiles_to_its_movement_chain() {
        for (decoder, step) in [
            ("svm()", "classify_svm"),
            ("nn()", "classify_nn"),
            ("kf(kf_params)", "classify_kf"),
        ] {
            let plan = ProgramPlan::compile(&format!(
                "var watch = stream.window(wsize=4ms).seizure_detect()\n\
                 var decode = stream.window(wsize=8ms).bbf(300, 3000).fft().{decoder}.call_runtime()"
            ))
            .unwrap();
            let movement = &plan.chains()[1];
            assert_eq!(movement.role(), ChainRole::Movement);
            assert_eq!(movement.cadence(), 2);
            assert_eq!(plan.binding().movement_every, 2);
            assert_eq!(
                movement.step_names(),
                ["bandpass", "fft_features", step, "emit"]
            );
        }
    }

    #[test]
    fn validation_rejects_misordered_chains() {
        let compile = ProgramPlan::compile;
        // ccheck without a hash.
        assert!(matches!(
            compile("var q = stream.window(wsize=4ms).ccheck()"),
            Err(PlanError::Misplaced { op: "ccheck", .. })
        ));
        // dtw without a ccheck.
        assert!(matches!(
            compile("var q = stream.window(wsize=4ms).hash(dtw).dtw()"),
            Err(PlanError::Misplaced { op: "dtw", .. })
        ));
        // A decoder without features.
        assert!(matches!(
            compile("var q = stream.window(wsize=8ms).svm()"),
            Err(PlanError::Misplaced { op: "decoder", .. })
        ));
        // stim with nothing to act on.
        assert!(matches!(
            compile("var q = stream.window(wsize=4ms).hash(dtw).stim()"),
            Err(PlanError::Misplaced { op: "stim", .. })
        ));
        // No window at all.
        assert!(matches!(
            compile("var q = stream.seizure_detect()"),
            Err(PlanError::MissingWindow { .. })
        ));
        // Listing 1 alone: 50 ms does not sit on the 4 ms cadence.
        assert!(matches!(
            compile("var movements = stream.window(wsize=50ms).sbp().kf(kf_params).call_runtime()"),
            Err(PlanError::CadenceMismatch { .. })
        ));
        // Detection and decode in one chain.
        assert!(matches!(
            compile("var q = stream.window(wsize=4ms).seizure_detect().fft().svm()"),
            Err(PlanError::AmbiguousRole { .. })
        ));
        // Two serving chains.
        assert!(matches!(
            compile(
                "var a = stream.window(wsize=4ms).seizure_detect()\n\
                 var b = stream.window(wsize=4ms).seizure_detect()"
            ),
            Err(PlanError::BadProgram { .. })
        ));
    }

    #[test]
    fn budget_resolves_on_default_deployment() {
        let plan = ProgramPlan::compile(SEIZURE).unwrap();
        let budget = resolve_budget(&plan, 4, 15.0).unwrap();
        assert!(budget.schedule.weighted_mbps > 0.0);
        assert!(budget.predicted_window_ms > 0.0);
        // A starvation budget is infeasible, typed as such.
        assert!(matches!(
            resolve_budget(&plan, 4, 1e-3),
            Err(PlanError::Infeasible { nodes: 4, .. })
        ));
    }

    /// Seeded mutation test of the query front end (lexer, parser,
    /// lowering, validation): byte flips, truncations, splices of two
    /// sources, and dropped or duplicated `.op()` segments of the
    /// catalog and test programs. Every mutant must compile or fail
    /// with a typed [`PlanError`]; none may panic. Two hostile inputs
    /// run first as fixed regressions: 100,000 nested named arguments (a
    /// 200 KB program that overflowed the parser's stack) and a
    /// non-ASCII operator name.
    #[test]
    fn mutated_sources_compile_or_fail_typed() {
        let nested = format!("var q = stream.window({}1ms)", "x=".repeat(100_000));
        for hostile in [nested.as_str(), "var q = stream.é()"] {
            assert!(matches!(
                ProgramPlan::compile(hostile),
                Err(PlanError::Query(_))
            ));
        }
        let corpus = [
            SEIZURE,
            MIX,
            crate::catalog::SEIZURE_WATCH,
            crate::catalog::SEIZURE_RELIABLE,
            crate::catalog::MOVEMENT_MIX,
            "var decode = stream.window(wsize=8ms).bbf(300, 3000).xcor().nn().call_runtime()",
            "var seizure_data = stream.Map(s => s.select(s => s.data), s.locID)\
             .window(wsize=4ms).select(w => w.time >= -5000)\
             .select(w => w.seizure_detect(), w[-100ms:100ms]).spike_detect().hash(emd)",
        ];
        let mut state = 0x5ca1_f22du64;
        let mut next = |bound: usize| {
            // xorshift64*: std-only and seeded, so every run replays.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32) as usize % bound.max(1)
        };
        for _ in 0..10_000 {
            let mut src = corpus[next(corpus.len())].as_bytes().to_vec();
            for _ in 0..1 + next(3) {
                match next(5) {
                    0 if !src.is_empty() => {
                        let i = next(src.len());
                        src[i] = (src[i] ^ (1 << next(7))) & 0x7f;
                    }
                    1 => src.truncate(next(src.len() + 1)),
                    2 => {
                        let other = corpus[next(corpus.len())].as_bytes();
                        src.truncate(next(src.len() + 1));
                        src.extend_from_slice(&other[next(other.len() + 1)..]);
                    }
                    op => {
                        let segments = op_segments(&src);
                        if segments.is_empty() {
                            continue;
                        }
                        let (a, b) = segments[next(segments.len())];
                        let segment = src[a..b].to_vec();
                        if op == 3 {
                            src.drain(a..b);
                        } else {
                            src.splice(b..b, segment);
                        }
                    }
                }
            }
            let mutant = String::from_utf8(src).expect("mutations keep sources ASCII");
            let outcome = std::panic::catch_unwind(|| {
                ProgramPlan::compile(&mutant).map_err(|e| e.to_string())
            });
            assert!(outcome.is_ok(), "compiling {mutant:?} panicked");
        }
    }

    /// Byte ranges of every `.name(…)` call in `src`, parentheses
    /// balanced.
    fn op_segments(src: &[u8]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (dot, _) in src.iter().enumerate().filter(|(_, &b)| b == b'.') {
            let mut i = dot + 1;
            while i < src.len() && (src[i].is_ascii_alphanumeric() || src[i] == b'_') {
                i += 1;
            }
            if i == dot + 1 || src.get(i) != Some(&b'(') {
                continue;
            }
            let mut depth = 0usize;
            for (j, &b) in src.iter().enumerate().skip(i) {
                match b {
                    b'(' => depth += 1,
                    b')' => depth -= 1,
                    _ => continue,
                }
                if depth == 0 {
                    out.push((dot, j + 1));
                    break;
                }
            }
        }
        out
    }
}
