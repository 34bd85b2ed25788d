//! Model test for [`Interner`]: arbitrary interleavings of `intern`, `get`,
//! `name`, `iter` and `clone` against a `HashMap<String, u32>` + `Vec<String>`
//! — the representation the arena-backed interner replaced.

use std::collections::HashMap;

use proptest::prelude::*;

use coordination_core::ids::Interner;

/// Index → name. The low indices are hand-picked to share what a
/// word-at-a-time hash reads first (equal 8- and 16-byte prefixes, names
/// differing only in length, the empty string, multi-byte UTF-8); the rest
/// are numbered, so a long run of operations doubles the table several times.
fn name(i: usize) -> String {
    const HAZARDS: &[&str] = &[
        "",
        "a",
        "aa",
        "aaaaaaaa",
        "aaaaaaaaa",
        "aaaaaaaaaaaaaaaa",
        "aaaaaaaaaaaaaaaaa",
        "abcdefgh1",
        "abcdefgh2",
        "abcdefghijklmnopX",
        "abcdefghijklmnopY",
        "é",
        "e\u{301}",
        "日本語の名前",
        "日本語の名前2",
        "\0",
    ];
    match HAZARDS.get(i) {
        Some(hazard) => (*hazard).to_owned(),
        None => format!("user_{i}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn interner_matches_the_map_and_vec_model(
        ops in prop::collection::vec((0u8..8, 0usize..400), 0..900),
    ) {
        let mut ids: HashMap<String, u32> = HashMap::new();
        let mut names: Vec<String> = Vec::new();
        let mut interner = Interner::new();
        // A second interner fed the same names draws its own secret; the
        // ids must agree all the same.
        let mut twin = Interner::new();
        let mut snapshot: Option<(Interner, usize)> = None;
        for (op, i) in ops {
            let n = name(i);
            match op {
                0..=3 => {
                    let next = names.len() as u32;
                    let want = *ids.entry(n.clone()).or_insert_with(|| {
                        names.push(n.clone());
                        next
                    });
                    prop_assert_eq!(interner.intern(&n), want);
                    prop_assert_eq!(twin.intern(&n), want);
                }
                4 => prop_assert_eq!(interner.get(&n), ids.get(&n).copied()),
                5 => {
                    if let Some(known) = names.get(i % names.len().max(1)) {
                        let id = (i % names.len()) as u32;
                        prop_assert_eq!(interner.name(id), known.as_str());
                    }
                }
                6 => {
                    let listed: Vec<(u32, &str)> = interner.iter().collect();
                    let want: Vec<(u32, &str)> = (0..).zip(names.iter().map(String::as_str)).collect();
                    prop_assert_eq!(listed, want);
                }
                _ => {
                    // Carry on with the clone; keep the original to check
                    // that later interning never reaches back into it.
                    let clone = interner.clone();
                    let original = std::mem::replace(&mut interner, clone);
                    snapshot = Some((original, names.len()));
                }
            }
            prop_assert_eq!(interner.len(), names.len());
            prop_assert_eq!(interner.is_empty(), names.is_empty());
        }
        for (id, n) in (0..).zip(&names) {
            prop_assert_eq!(interner.name(id), n.as_str());
            prop_assert_eq!(interner.get(n), Some(id));
            prop_assert_eq!(twin.get(n), Some(id));
        }
        if let Some((original, len)) = snapshot {
            prop_assert_eq!(original.len(), len);
            for (id, n) in (0..).zip(&names) {
                let want = ((id as usize) < len).then_some(id);
                prop_assert_eq!(original.get(n), want);
            }
        }
    }
}
