//! # swsec — the low-level software security laboratory
//!
//! This crate ties the substrates together into the system of
//! Piessens & Verbauwhede, *Software Security: Vulnerabilities and
//! Countermeasures for Two Attacker Models* (DATE 2016):
//!
//! * [`loader`] — compile-and-launch under a chosen defense stack
//!   (canaries, DEP, ASLR, shadow stack, bounds checks);
//! * [`equiv`] — the paper's security objective as an executable
//!   check: compiled behaviour vs the source semantics;
//! * [`attacker`] — the §III-B attack techniques as runnable
//!   procedures with canonical victims;
//! * [`experiments`] — the E1..E16 drivers reproducing every figure
//!   and claim (see `DESIGN.md` and `EXPERIMENTS.md`), each behind the
//!   uniform [`experiments::Experiment`] trait;
//! * [`campaign`] — the parallel, fault-tolerant campaign runner: the
//!   full suite on a pool of workers, byte-identical output at any
//!   worker count, panicking/stalling cells contained and reported;
//! * [`faults`] — deterministic fault injection: seed-derived crash
//!   points and bit flips, plus the test-only fault-demo experiment;
//! * [`cache`] — compile-once memoization across a campaign's
//!   thousands of victim launches;
//! * [`harness`] — the snapshot/restore fork server: boot a victim
//!   once, serve every attack attempt in O(dirty pages);
//! * [`serve`] — campaign-as-a-service: a long-lived job queue with
//!   multi-tenant sessions, a bounded LRU pool of warm fork servers,
//!   bounded backpressure with typed shedding, and per-tenant
//!   determinism;
//! * [`report`] — plain-text tables the drivers emit.
//!
//! ## Quick start
//!
//! ```
//! use swsec::prelude::*;
//!
//! // Attack the unprotected platform…
//! let r = run_technique(Technique::Ret2Libc, DefenseConfig::none(), 42)?;
//! assert!(r.outcome.succeeded());
//! // …then deploy stack canaries and watch it die.
//! let mut cfg = DefenseConfig::none();
//! cfg.canary = true;
//! let r = run_technique(Technique::Ret2Libc, cfg, 42)?;
//! assert!(!r.outcome.succeeded());
//! # Ok::<(), swsec_minc::CompileError>(())
//! ```

#![warn(missing_docs)]

pub mod attacker;
pub mod cache;
pub mod campaign;
pub mod equiv;
pub mod experiments;
pub mod faults;
pub mod harness;
pub mod loader;
pub mod report;
pub mod serve;

/// The names nearly every user of the laboratory needs.
pub mod prelude {
    pub use crate::attacker::{run_technique, AttackOutcome, AttackResult, Technique};
    pub use crate::cache::ProgramCache;
    pub use crate::campaign::{
        run_campaign, run_campaign_on, run_campaign_with, CampaignConfig, CampaignReport,
        CampaignTelemetry, CellOutcome, CellProgress, CellRecord,
    };
    pub use crate::equiv::{compare, Comparison, Verdict};
    pub use crate::experiments::{registry, Experiment};
    pub use crate::faults::{FaultPlan, FaultyExperiment};
    pub use crate::harness::{AttackTarget, AttemptOutcome, ForkServer, SearchOutcome, ServeMode};
    pub use crate::loader::{launch, Session};
    pub use crate::report::{ExperimentId, Report, Table};
    pub use crate::serve::{
        CampaignService, JobId, JobOutcome, JobSpec, JobStats, RejectReason, ServeConfig,
        ServeTelemetry, ServeTotals, ServiceRound, TenantConfig, TenantId,
    };
    pub use swsec_defenses::DefenseConfig;
}
