//! Shared CONGEST building blocks.

pub(crate) mod arena;
mod bfs;
pub(crate) mod engine;
mod flood;
mod upcast;

pub use bfs::{build_bfs_tree, BfsOutcome, Children};
pub(crate) use engine::Engine;
pub(crate) use flood::flood_items_on;
pub use flood::{flood_items, FloodItem, FloodOutcome};
pub use upcast::{filtered_upcast, UpcastCandidate, UpcastMode, UpcastOutcome, UpcastRootVerdict};
