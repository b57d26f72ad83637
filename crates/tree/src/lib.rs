//! ORAM tree geometry for the AB-ORAM reproduction.
//!
//! This crate models the *shape* of a Ring ORAM / Path ORAM tree and nothing
//! else: levels, per-level bucket sizes (uniform or non-uniform, as required
//! by AB-ORAM's NS and DR schemes), path and bucket addressing, the
//! reverse-lexicographic eviction order, the physical byte layout of buckets
//! and metadata in memory, and closed-form space accounting.
//!
//! It deliberately holds no protocol state (no stash, no position map, no
//! metadata contents); those live in `aboram-core`. Keeping geometry separate
//! lets the space results of the paper (Fig. 8a/8b, Fig. 4 top) be computed
//! and tested analytically, independent of any simulation.
//!
//! # Coordinate system
//!
//! Levels are numbered from the root: level `0` is the root, level
//! `levels - 1` is the leaf level, matching the paper's `L0..L23` notation
//! for a 24-level tree. A [`PathId`] names a root-to-leaf path by its leaf
//! index in `0..2^(levels-1)`.
//!
//! # Example
//!
//! ```
//! use aboram_tree::{TreeGeometry, LevelConfig, PathId};
//!
//! // The paper's CB baseline: 24 levels, Z' = 5, S = 3 (+ Y = 4 overlap).
//! let geo = TreeGeometry::uniform(24, LevelConfig::new(5, 3).with_overlap(4)).unwrap();
//! assert_eq!(geo.bucket_count(), (1u64 << 24) - 1);
//! let path = PathId::new(12345);
//! let buckets: Vec<_> = geo.path_buckets(path).collect();
//! assert_eq!(buckets.len(), 24);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod error;
mod geometry;
mod level;
mod path;
pub mod simd;
mod space;

pub use addr::{PhysicalLayout, SlotAddr, BLOCK_BYTES, METADATA_BLOCK_BYTES};
pub use error::GeometryError;
pub use geometry::TreeGeometry;
pub use level::LevelConfig;
pub use path::{reverse_lex_path, BucketId, Level, PathBuckets, PathId, SlotId};
pub use space::{LevelSpace, SpaceReport};
