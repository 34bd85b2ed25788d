//! Typed dense ids for the two vertex universes of the bipartite data.
//!
//! The raw data identifies authors and pages by strings; every algorithmic
//! stage works on dense `u32` ids so graphs can use flat arrays. `u32` holds
//! 4.3 billion distinct entities — the full Reddit author space (the paper's
//! biggest projection has 2.95 million authors) with room to spare, at half
//! the memory of `usize` keys (perf-book: smaller integers in hot types).
//! The newtypes keep author and page id spaces from being mixed up at
//! compile time; graph storage itself works on the raw `u32`s.

/// Seconds since the Unix epoch, matching pushshift's `created_utc`.
pub type Timestamp = i64;

/// Dense author id.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AuthorId(pub u32);

/// Dense page id (the root submission of a comment tree).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u32);
