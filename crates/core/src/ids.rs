//! Dense ids for authors and pages, and the string interner that produces them.
//!
//! The id newtypes themselves live in the shared [`coordination_graph`] layer
//! (every graph representation keys vertices by them) and are re-exported here
//! for compatibility; the [`Event`] record, the [`Interner`] and the
//! [`IdHash`] that id-keyed maps hash with are core-specific.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

pub use coordination_graph::{AuthorId, PageId, Timestamp};

/// One comment: `author` commented on `page` at `ts`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Who commented.
    pub author: AuthorId,
    /// The page (submission) commented on.
    pub page: PageId,
    /// When, in seconds since the epoch.
    pub ts: Timestamp,
}

impl Event {
    /// Construct an event.
    pub fn new(author: AuthorId, page: PageId, ts: Timestamp) -> Self {
        Event { author, page, ts }
    }
}

/// A string interner mapping names to dense `u32` ids and back.
///
/// Names live back to back in one byte arena (`ends[id]` is where name `id`
/// stops), and an open-addressing table of packed `(hash32, id + 1)` slots —
/// `0` is the empty slot, so a fresh table is one zeroed allocation — finds
/// them again by linear probing. Interning a new name appends its bytes once;
/// nothing is allocated, copied twice or freed per name.
///
/// Ids are handed out in first-occurrence order and never depend on the hash:
/// the per-interner secret only decides *where* a name's slot sits, so that
/// attacker-chosen usernames cannot be crafted to pile onto one probe chain.
#[derive(Clone, Debug)]
pub struct Interner {
    arena: String,
    ends: Vec<u32>,
    /// Power-of-two length (or empty before the first `intern`).
    table: Vec<u64>,
    /// The hash multiplier: random, odd, fixed for the interner's life.
    secret: u64,
}

impl Default for Interner {
    fn default() -> Self {
        Self::new()
    }
}

/// Fold the 128-bit product of `a` and `b` onto 64 bits.
#[inline]
fn fold_mul(a: u64, b: u64) -> u64 {
    let wide = u128::from(a) * u128::from(b);
    (wide as u64) ^ ((wide >> 64) as u64)
}

#[inline]
fn word(s: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(s[at..at + 8].try_into().expect("an 8-byte slice"))
}

#[inline]
fn half_word(s: &[u8], at: usize) -> u64 {
    u64::from(u32::from_le_bytes(
        s[at..at + 4].try_into().expect("a 4-byte slice"),
    ))
}

/// A random odd multiplier, fixed by its owner for life. `RandomState` is
/// std's per-process random source; hashing nothing with it yields 64 bits
/// an outsider cannot predict.
fn random_secret() -> u64 {
    RandomState::new().build_hasher().finish() | 1
}

/// Where the arena ends once `add` more bytes follow its current `len`.
fn arena_end(len: usize, add: usize) -> u32 {
    len.checked_add(add)
        .and_then(|end| u32::try_from(end).ok())
        .expect("interner overflow: > u32::MAX bytes of names")
}

/// The id of the next name when `len` are interned. `u32::MAX` itself is
/// never handed out: a slot stores `id + 1`.
fn next_id(len: usize) -> u32 {
    u32::try_from(len)
        .ok()
        .filter(|&id| id < u32::MAX)
        .expect("interner overflow: >= u32::MAX names")
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner {
            arena: String::new(),
            ends: Vec::new(),
            table: Vec::new(),
            // (A zero secret — tests only — would make every hash 0.)
            secret: random_secret(),
        }
    }

    /// Word-at-a-time multiplicative hash of `s`; the last (or only) word
    /// overlaps its predecessor instead of being padded, which the length
    /// mixed into the start makes unambiguous.
    #[inline]
    fn hash(&self, s: &[u8]) -> u32 {
        let (k, n) = (self.secret, s.len());
        let mut h = k ^ n as u64;
        let last = if n >= 8 {
            let mut at = 0;
            while at + 8 < n {
                h = fold_mul(h ^ word(s, at), k);
                at += 8;
            }
            word(s, n - 8)
        } else if n >= 4 {
            half_word(s, 0) << 32 | half_word(s, n - 4)
        } else if n > 0 {
            u64::from(s[0]) << 16 | u64::from(s[n / 2]) << 8 | u64::from(s[n - 1])
        } else {
            0
        };
        (fold_mul(h ^ last, k) >> 32) as u32
    }

    /// The arena range of name `id`; panics if `id` was never allocated.
    #[inline]
    fn range(&self, id: u32) -> std::ops::Range<usize> {
        let start = match id {
            0 => 0,
            _ => self.ends[id as usize - 1],
        };
        start as usize..self.ends[id as usize] as usize
    }

    /// The slot a name hashing to `hash` is looked for first: the top bits
    /// of the hash, so slot order is hash order and re-inserting a table in
    /// slot order walks the grown table front to back.
    #[inline]
    fn home(hash: u32, slots: usize) -> usize {
        ((u64::from(hash) << 32) >> (64 - slots.trailing_zeros())) as usize
    }

    /// Probe for `name`: its id, or the empty slot where it belongs. The
    /// table must be non-empty; it is never full, so the walk terminates.
    #[inline]
    fn probe(&self, name: &[u8], hash: u32) -> Result<u32, usize> {
        let mask = self.table.len() - 1;
        let mut at = Self::home(hash, self.table.len());
        loop {
            let slot = self.table[at];
            if slot == 0 {
                return Err(at);
            }
            if (slot >> 32) as u32 == hash {
                let id = slot as u32 - 1;
                if &self.arena.as_bytes()[self.range(id)] == name {
                    return Ok(id);
                }
            }
            at = (at + 1) & mask;
        }
    }

    /// Double the table (load stays under 3/4) and re-seat every slot from
    /// the hash it already carries — no name is read.
    fn grow(&mut self) {
        let slots = (self.table.len() * 2).max(16);
        let old = std::mem::replace(&mut self.table, vec![0; slots]);
        for slot in old.into_iter().filter(|&slot| slot != 0) {
            let mut at = Self::home((slot >> 32) as u32, slots);
            while self.table[at] != 0 {
                at = (at + 1) & (slots - 1);
            }
            self.table[at] = slot;
        }
    }

    /// Id for `name`, allocating the next dense id on first sight.
    ///
    /// # Panics
    /// Panics with `interner overflow` past `u32::MAX - 1` names or
    /// `u32::MAX` bytes of names.
    pub fn intern(&mut self, name: &str) -> u32 {
        if (self.ends.len() + 1) * 4 > self.table.len() * 3 {
            self.grow();
        }
        let hash = self.hash(name.as_bytes());
        match self.probe(name.as_bytes(), hash) {
            Ok(id) => id,
            Err(at) => {
                let id = next_id(self.ends.len());
                let end = arena_end(self.arena.len(), name.len());
                self.arena.push_str(name);
                self.ends.push(end);
                self.table[at] = u64::from(hash) << 32 | u64::from(id + 1);
                id
            }
        }
    }

    /// Id for `name` if already interned.
    pub fn get(&self, name: &str) -> Option<u32> {
        if self.table.is_empty() {
            return None;
        }
        self.probe(name.as_bytes(), self.hash(name.as_bytes())).ok()
    }

    /// Name for `id`.
    ///
    /// # Panics
    /// Panics if `id` was never allocated.
    pub fn name(&self, id: u32) -> &str {
        &self.arena[self.range(id)]
    }

    /// Number of interned names (and the next id to be allocated).
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterate `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        (0..self.len() as u32).map(|id| (id, self.name(id)))
    }
}

/// The `BuildHasher` for maps keyed by dense ids or words packed from them
/// (`pack_pair`, `page << 32 | author`, …): the [`Interner`]'s `fold_mul`
/// mixing, one multiply per key word, under a random odd secret drawn per
/// instance the way an interner draws its own — so ids an outsider chose
/// cannot be crafted to pile onto one probe chain, where an unkeyed
/// multiplicative hash would let them.
#[derive(Clone, Debug)]
pub struct IdHash {
    secret: u64,
}

impl Default for IdHash {
    fn default() -> Self {
        IdHash {
            secret: random_secret(),
        }
    }
}

impl BuildHasher for IdHash {
    type Hasher = IdHasher;

    #[inline]
    fn build_hasher(&self) -> IdHasher {
        IdHasher {
            secret: self.secret,
            h: self.secret,
        }
    }
}

/// The state of one [`IdHash`] hash: each key word is folded in by
/// `h = fold_mul(h ^ word, secret)`.
#[derive(Clone, Debug)]
pub struct IdHasher {
    secret: u64,
    h: u64,
}

impl Hasher for IdHasher {
    /// Byte keys (arrays hash their length first) go a zero-padded word at a
    /// time.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.h = fold_mul(self.h ^ n, self.secret);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.write_u64(n as u64);
        self.write_u64((n >> 64) as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.h
    }
}

/// A `HashMap` keyed by ids, hashed with [`IdHash`].
pub type IdMap<K, V> = HashMap<K, V, IdHash>;

/// A `HashSet` of ids, hashed with [`IdHash`].
pub type IdSet<K> = HashSet<K, IdHash>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut i = Interner::new();
        assert_eq!(i.intern("alice"), 0);
        assert_eq!(i.intern("bob"), 1);
        assert_eq!(i.intern("alice"), 0);
        assert_eq!(i.len(), 2);
        assert_eq!(i.name(0), "alice");
        assert_eq!(i.name(1), "bob");
    }

    #[test]
    fn get_does_not_allocate() {
        let mut i = Interner::new();
        assert_eq!(i.get("x"), None);
        i.intern("x");
        assert_eq!(i.get("x"), Some(0));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn iter_in_id_order() {
        let mut i = Interner::new();
        for n in ["c", "a", "b"] {
            i.intern(n);
        }
        let got: Vec<(u32, &str)> = i.iter().collect();
        assert_eq!(got, vec![(0, "c"), (1, "a"), (2, "b")]);
    }

    #[test]
    #[should_panic]
    fn name_of_unallocated_id_panics() {
        let i = Interner::new();
        let _ = i.name(0);
    }

    #[test]
    #[should_panic]
    fn name_past_the_last_id_panics() {
        let mut i = Interner::new();
        i.intern("only");
        let _ = i.name(1);
    }

    /// Names built to share whatever a word-at-a-time hash reads first:
    /// equal in their first 8 and 16 bytes, differing only in length, empty,
    /// multi-byte, and enough numbered ones for the table to double 6 times.
    fn hazards() -> Vec<String> {
        let mut names: Vec<String> = [
            "",
            "a",
            "aa",
            "aaa",
            "aaaa",
            "aaaaaaa",
            "aaaaaaaa",
            "aaaaaaaaa",
            "aaaaaaaaaaaaaaaa",
            "aaaaaaaaaaaaaaaaa",
            "abcdefgh",
            "abcdefgh1",
            "abcdefgh2",
            "abcdefghijklmnop",
            "abcdefghijklmnopX",
            "abcdefghijklmnopY",
            "\u{e9}",
            "e\u{301}",
            "uni\u{2014}cod\u{e9}\u{2713}",
            "\u{65e5}\u{672c}\u{8a9e}\u{306e}\u{540d}\u{524d}",
            "\0",
            "\0\0",
        ]
        .map(String::from)
        .into();
        names.extend((0..700).map(|i| format!("t3_{i:x}")));
        names
    }

    /// `intern` / `get` / `name` / `iter` / `clone` against the obvious
    /// model, visiting the hazards in a scrambled order with repeats.
    fn check_against_model(mut interner: Interner) {
        let names = hazards();
        let mut model_ids: HashMap<&str, u32> = HashMap::new();
        let mut model_names: Vec<&str> = Vec::new();
        let mut earlier: Option<(Interner, usize)> = None;
        for step in 0..3 * names.len() {
            let name = names[step * 7919 % names.len()].as_str();
            assert_eq!(interner.get(name), model_ids.get(name).copied(), "{name:?}");
            let next = model_names.len() as u32;
            let want = *model_ids.entry(name).or_insert_with(|| {
                model_names.push(name);
                next
            });
            assert_eq!(interner.intern(name), want, "{name:?}");
            assert_eq!(interner.get(name), Some(want));
            assert_eq!(interner.name(want), name);
            assert_eq!(interner.len(), model_names.len());
            if step == names.len() / 2 {
                // a clone is a snapshot: it must not see later names
                earlier = Some((interner.clone(), interner.len()));
            }
        }
        assert_eq!(model_names.len(), names.len());
        assert!(interner.table.len() >= 16 << 6, "table never grew");
        let listed: Vec<(u32, &str)> = interner.iter().collect();
        let want: Vec<(u32, &str)> = (0..).zip(model_names.iter().copied()).collect();
        assert_eq!(listed, want);
        let (earlier, len) = earlier.expect("cloned half way");
        assert_eq!(earlier.len(), len);
        assert_eq!(earlier.iter().collect::<Vec<_>>(), want[..len]);
        assert_eq!(earlier.get(want[len].1), None);
    }

    #[test]
    fn matches_the_model_under_a_random_secret() {
        check_against_model(Interner::new());
    }

    /// With the constant hash every name probes from slot 0 and every tag
    /// matches, so only the name comparison tells them apart.
    #[test]
    fn matches_the_model_under_total_collision() {
        let degenerate = Interner {
            secret: 0,
            ..Interner::new()
        };
        assert_eq!(degenerate.hash(b"x"), degenerate.hash(b"a longer name"));
        check_against_model(degenerate);
    }

    #[test]
    fn ids_do_not_depend_on_the_secret() {
        let (mut a, mut b) = (Interner::new(), Interner::new());
        assert_ne!(a.secret, b.secret);
        for name in hazards().iter().rev() {
            assert_eq!(a.intern(name), b.intern(name));
        }
        assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
    }

    #[test]
    fn fresh_interners_draw_different_secrets() {
        assert_ne!(Interner::new().secret, Interner::new().secret);
        assert_eq!(Interner::new().secret & 1, 1);
    }

    #[test]
    fn id_hash_is_keyed_per_instance_and_stable_within_one() {
        let (a, b) = (IdHash::default(), IdHash::default());
        assert_ne!(a.secret, b.secret);
        assert_eq!(a.secret & 1, 1);
        let key = 7u64 << 32 | 9;
        assert_eq!(a.hash_one(key), a.hash_one(key));
        assert_ne!(a.hash_one(key), b.hash_one(key));
        assert_ne!(a.hash_one([1u32, 2, 3]), a.hash_one([1u32, 2, 4]));
        let mut m: IdMap<u128, u32> = IdMap::default();
        for k in 0..1000u128 {
            m.insert(k << 64 | k, k as u32);
        }
        assert!((0..1000u128).all(|k| m[&(k << 64 | k)] == k as u32));
    }

    #[test]
    fn offsets_and_ids_stop_at_the_u32_range() {
        assert_eq!(arena_end(u32::MAX as usize - 3, 3), u32::MAX);
        assert_eq!(next_id(u32::MAX as usize - 1), u32::MAX - 1);
    }

    #[test]
    #[should_panic(expected = "interner overflow")]
    fn arena_past_u32_max_bytes_panics() {
        arena_end(u32::MAX as usize - 3, 4);
    }

    #[test]
    #[should_panic(expected = "interner overflow")]
    fn arena_length_overflowing_usize_panics() {
        arena_end(7, usize::MAX);
    }

    #[test]
    #[should_panic(expected = "interner overflow")]
    fn id_u32_max_is_never_allocated() {
        next_id(u32::MAX as usize);
    }
}
