//! # fta-core — domain model for Fairness-aware Task Assignment (FTA)
//!
//! This crate contains the problem-domain layer of the FTA reproduction
//! (Zhao et al., *Fairness-aware Task Assignment in Spatial Crowdsourcing:
//! Game-Theoretic Approaches*, ICDE 2021):
//!
//! * [`geometry`] — 2D points, Euclidean distances, and travel times;
//! * [`ids`] — strongly-typed identifiers for workers, tasks, delivery
//!   points, and distribution centers;
//! * [`entities`] — the paper's Definitions 1–4: distribution centers,
//!   delivery points, spatial tasks, and workers;
//! * [`instance`] — a complete problem instance with validation and the
//!   per-center decomposition the paper exploits for parallelism;
//! * [`route`] — delivery point sequences (Definition 5) with arrival
//!   times, deadline slack, and validity checks (Definition 6);
//! * [`payoff`] — worker payoff (Definition 7, Equation 1);
//! * [`assignment`] — spatial task assignments (Definition 8) with
//!   disjointness validation;
//! * [`builder`] — ergonomic instance construction with auto-assigned ids;
//! * [`fairness`] — the payoff difference `P_dif` (Equation 2) plus
//!   auxiliary fairness indices (Gini, Jain, min–max ratio);
//! * [`iau`] — Inequity Aversion based Utility (Equations 5–7);
//! * [`priority`] — priority-aware fairness, the paper's future-work
//!   extension: entitlement-weighted payoff differences and IAU;
//! * [`fig1`] — the hand-built worked example of the paper's Figure 1,
//!   used by the quickstart example and by tests.
//!
//! The crate is deliberately free of I/O, randomness, and threading; those
//! concerns live in `fta-data`, `fta-algorithms`, and `fta-experiments`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod assignment;
pub mod budget;
pub mod builder;
pub mod entities;
pub mod error;
pub mod fairness;
pub mod fig1;
pub mod geometry;
pub mod iau;
pub mod ids;
pub mod instance;
pub mod payoff;
pub mod priority;
pub mod route;

pub use assignment::Assignment;
pub use budget::{set_exhaustion_observer, CancelToken, SolveBudget};
pub use entities::{DeliveryPoint, DistributionCenter, SpatialTask, Worker};
pub use error::{FtaError, Result};
pub use fairness::FairnessReport;
pub use geometry::Point;
pub use iau::IauParams;
pub use ids::{CenterId, DeliveryPointId, TaskId, WorkerId};
pub use instance::{CenterView, DpAggregate, Instance};
pub use route::Route;
