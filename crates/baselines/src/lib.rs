//! Baseline ordered indices from the Jiffy paper's evaluation (§4.1).
//!
//! Each module reimplements, from scratch, the *synchronization skeleton*
//! of one comparator:
//!
//! | module      | paper system                | synchronization strategy |
//! |-------------|-----------------------------|--------------------------|
//! | [`cslm`]    | Java `ConcurrentSkipListMap`| lock-free skip list, in-place updates, non-linearizable scans, no atomic batches |
//! | [`catree`]  | CA-AVL / CA-SL / CA-imm     | lock-based contention-adapting tree over mutable (AVL, skip list) or immutable containers; 2PL batch updates |
//! | [`lfca`]    | LFCA tree                   | lock-free CA tree with immutable containers replaced by CAS |
//! | [`kary`]    | k-ary search tree           | immutable leaves replaced by CAS; validate-and-restart range scans |
//! | [`snaptree`]| SnapTree                    | lock-based partitioned persistent tree; O(1)-per-shard clone snapshots that stall writers |
//!
//! Per-module docs list the deliberate simplifications relative to the
//! original systems; DESIGN.md §2 explains why each preserves the
//! behaviour the paper's evaluation measures.

pub mod avl;
pub mod catree;
pub mod cslm;
pub mod imm;
pub mod kary;
pub mod lfca;
pub mod pavl;
pub mod seqskip;
pub mod snaptree;

pub use catree::{CaTree, Container};
pub use cslm::Cslm;
pub use kary::KaryTree;
pub use lfca::LfcaTree;
pub use snaptree::SnapTree;

/// Construct every baseline (plus helpers used by the harness).
pub mod prelude {
    pub use super::catree::{AvlContainer, ImmContainer, SkipContainer};
    pub use super::*;
}
