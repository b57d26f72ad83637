//! The metadata and address hot path's kernel name.
//!
//! The hot path is plain scalar Rust: AB-ORAM buckets hold at most 16 slots,
//! so each bucket's metadata bitmaps are one word and a whole access path
//! combines fewer than 24 of them — too little work for vector kernels to
//! pay off (DESIGN.md §15).

/// Name of the metadata/address kernel (`"scalar"`), printed by benchmark
/// settings lines.
pub fn kernel_name() -> &'static str {
    "scalar"
}
