//! Pre-projection exclusion of known accounts.
//!
//! The paper (§3) removes 'helpful' bots such as `AutoModerator` and the
//! `[deleted]` placeholder before projecting: the former's interaction pattern
//! is known and uninteresting, and the latter aggregates arbitrarily many real
//! users into one name. Both would otherwise dominate the common interaction
//! graph (AutoModerator comments on a large fraction of all new pages within
//! seconds — the exact signature the projection hunts for).

use std::collections::HashSet;

use coordination_store::NamesView;

use crate::btm::Btm;
use crate::ids::AuthorId;
use crate::records::Dataset;

/// A set of author names excluded from projection.
#[derive(Clone, Debug, Default)]
pub struct ExclusionList {
    names: HashSet<String>,
}

impl ExclusionList {
    /// Empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// The paper's defaults: platform-role bots and the deleted-user
    /// placeholder.
    pub fn reddit_defaults() -> Self {
        let mut l = Self::new();
        l.add("AutoModerator");
        l.add("[deleted]");
        l
    }

    /// Add a name.
    pub(crate) fn add(&mut self, name: impl Into<String>) -> &mut Self {
        self.names.insert(name.into());
        self
    }

    /// Add many names.
    pub fn extend<I: IntoIterator<Item = S>, S: Into<String>>(&mut self, names: I) -> &mut Self {
        self.names.extend(names.into_iter().map(Into::into));
        self
    }

    /// Whether `name` is excluded.
    pub fn contains(&self, name: &str) -> bool {
        self.names.contains(name)
    }

    /// Resolve to dense author ids present in `ds` (unknown names are
    /// silently fine — the archive month may simply not contain them).
    pub fn resolve(&self, ds: &Dataset) -> Vec<AuthorId> {
        let mut ids: Vec<AuthorId> = self
            .names
            .iter()
            .filter_map(|n| ds.authors.get(n))
            .map(AuthorId)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Resolve against a snapshot's mapped author table (the snapshot load
    /// path: no interner materialized). Each excluded name is looked up with
    /// [`NamesView::find`], a binary search of the byte-ordered table, so
    /// nothing is hashed or UTF-8-checked per stored name.
    /// Produces exactly what [`ExclusionList::resolve`] would for the same
    /// vocabulary.
    pub fn resolve_names(&self, names: NamesView<'_>) -> Vec<AuthorId> {
        let mut ids: Vec<AuthorId> = self
            .names
            .iter()
            .filter_map(|n| names.find(n))
            .map(AuthorId)
            .collect();
        ids.sort_unstable();
        ids
    }
}

/// Heuristic from §2.4's refinement loop: accounts with at least
/// `threshold` comments in `btm`'s rows are candidate platform utilities
/// worth reviewing for exclusion, so `btm` is built with nobody excluded.
/// `name` labels an author id. Returns names sorted by volume, heaviest
/// first.
pub fn high_volume_accounts<'a>(
    btm: &Btm,
    name: impl Fn(u32) -> &'a str,
    threshold: u64,
) -> Vec<(String, u64)> {
    let mut counts = vec![0u64; btm.n_authors() as usize];
    for (_, row) in btm.pages() {
        for (_, a) in row.iter() {
            counts[a.0 as usize] += 1;
        }
    }
    let mut out: Vec<(String, u64)> = counts
        .into_iter()
        .enumerate()
        .filter(|&(_, c)| c >= threshold && c > 0)
        .map(|(id, c)| (name(id as u32).to_owned(), c))
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Interner;
    use crate::records::CommentRecord;
    use crate::store::{Snapshot, SnapshotWriter};
    use proptest::prelude::*;
    use std::sync::Arc;

    proptest! {
        /// Resolving against a snapshot's mapped author table gives what
        /// resolving against the interned dataset gives, whatever the table
        /// holds: the default names or not, and names of their byte lengths
        /// (`AutoModerator` is 13 bytes and `[deleted]` 9) that differ in the
        /// last byte only.
        #[test]
        fn resolve_names_over_a_mapped_table_equals_resolve(
            drawn in prop::collection::vec((0u8..3, 0u8..4), 0..30),
            extra in prop::collection::vec((0u8..3, 0u8..4), 0..3),
        ) {
            let name = |(stem, last): (u8, u8)| {
                let stem = ["AutoModerato", "[deleted", "bo"][stem as usize];
                format!("{stem}{}", ['r', ']', 'x', 't'][last as usize])
            };
            let mut authors = Interner::new();
            for &d in &drawn {
                authors.intern(&name(d));
            }
            let ds = Dataset {
                authors: Arc::new(authors),
                pages: Arc::new(Interner::new()),
                events: Vec::new(),
            };
            let mut w = SnapshotWriter::new();
            w.authors(ds.authors.iter().map(|(_, n)| n)).unwrap();
            w.pages(std::iter::empty()).unwrap();
            w.events(&[]).unwrap();
            let snap = Snapshot::from_bytes(w.to_bytes().unwrap()).unwrap();
            let mut more = ExclusionList::reddit_defaults();
            more.extend(extra.into_iter().map(name));
            for list in [ExclusionList::new(), ExclusionList::reddit_defaults(), more] {
                prop_assert_eq!(list.resolve_names(snap.author_names()), list.resolve(&ds));
            }
        }
    }

    #[test]
    fn defaults_cover_the_papers_cases() {
        let l = ExclusionList::reddit_defaults();
        assert!(l.contains("AutoModerator"));
        assert!(l.contains("[deleted]"));
        assert!(!l.contains("alice"));
        assert_eq!(l.names.len(), 2);
    }

    #[test]
    fn resolve_maps_names_to_ids_and_ignores_absent() {
        let ds = Dataset::from_records([
            CommentRecord::new("alice", "p", 1),
            CommentRecord::new("AutoModerator", "p", 1),
        ]);
        let l = ExclusionList::reddit_defaults();
        let ids = l.resolve(&ds);
        assert_eq!(
            ids,
            vec![AuthorId(ds.authors.get("AutoModerator").unwrap())]
        );
    }

    #[test]
    fn exclusion_removes_comments_via_btm() {
        let ds = Dataset::from_records([
            CommentRecord::new("alice", "p", 1),
            CommentRecord::new("AutoModerator", "p", 2),
            CommentRecord::new("bob", "p", 3),
        ]);
        let btm = ds.btm();
        let cleaned = btm.without_authors(&ExclusionList::reddit_defaults().resolve(&ds));
        assert_eq!(cleaned.n_comments(), 2);
    }

    #[test]
    fn extend_and_custom_names() {
        let mut l = ExclusionList::new();
        l.extend(["bot1", "bot2"]).add("bot3");
        assert_eq!(l.names.len(), 3);
        assert!(l.contains("bot2"));
    }

    #[test]
    fn high_volume_heuristic_sorts_desc() {
        let mut recs = Vec::new();
        for i in 0..50 {
            recs.push(CommentRecord::new("heavy", format!("p{i}"), i as i64));
        }
        for i in 0..10 {
            recs.push(CommentRecord::new("medium", format!("p{i}"), i as i64));
        }
        recs.push(CommentRecord::new("light", "p0", 0));
        let ds = Dataset::from_records(recs);
        let heavy = high_volume_accounts(&ds.btm(), |id| ds.authors.name(id), 10);
        assert_eq!(
            heavy,
            vec![("heavy".to_string(), 50), ("medium".to_string(), 10)]
        );
    }
}
