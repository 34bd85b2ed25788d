//! Property suite for the snapshot container: write → open is lossless
//! (names keep their dense ids, events come back exactly, in the narrow row
//! layout and the wide one, and so does the recorded window), and arbitrarily damaged bytes — bit flips,
//! truncations, forged headers, multi-byte mutations with the checksums
//! repaired — always surface as typed [`StoreError`]s, never panics.

use coordination_store::snapshot::checksum;
use coordination_store::{Snapshot, SnapshotWriter, StoreError, MAGIC, VERSION};
use proptest::prelude::*;

/// Unique name tables with unicode and awkward-but-legal content; the index
/// prefix forces uniqueness, the generated suffix exercises the encoding.
fn names(max: usize, tag: &'static str) -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec("[a-zA-Z0-9_αβγ網戸 .\\-]{0,10}", 1..max).prop_map(move |suffixes| {
        suffixes
            .into_iter()
            .enumerate()
            .map(|(i, s)| format!("{tag}{i}-{s}"))
            .collect()
    })
}

#[derive(Debug, Clone)]
struct Input {
    authors: Vec<String>,
    pages: Vec<String>,
    events: Vec<(u32, u32, i64)>,
    window: Option<(i64, i64)>,
}

/// No window one time in three; otherwise `0 ≤ d1 < d2`, up to a day.
fn windows() -> impl Strategy<Value = Option<(i64, i64)>> {
    (0u8..3, 0i64..3600, 1i64..86_400)
        .prop_map(|(some, d1, len)| (some > 0).then_some((d1, d1 + len)))
}

fn inputs() -> impl Strategy<Value = Input> {
    let tables = (names(16, "a"), names(12, "p"), 0u8..4, windows());
    tables.prop_flat_map(|(authors, pages, spread, window)| {
        let (na, np) = (authors.len() as u32, pages.len() as u32);
        // one input in four spreads over all of `i64`, which takes wide rows
        let ts = match spread {
            0 => i64::MIN..i64::MAX,
            _ => -1_000_000i64..1_000_000,
        };
        prop::collection::vec((0..na, 0..np, ts), 0..200).prop_map(move |mut events| {
            // the order they come back in: by page, then (ts, author)
            events.sort_by_key(|&(a, p, ts)| (p, ts, a));
            Input {
                authors: authors.clone(),
                pages: pages.clone(),
                events,
                window,
            }
        })
    })
}

fn write(input: &Input) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.authors(input.authors.iter().map(String::as_str)).unwrap();
    w.pages(input.pages.iter().map(String::as_str)).unwrap();
    w.events(&input.events).expect("in-range events");
    if let Some((d1, d2)) = input.window {
        w.window(d1, d2).expect("a window");
    }
    w.to_bytes().expect("serialize")
}

/// Whatever `open` accepted must be fully traversable without panicking:
/// every accessor the downstream stages use, end to end.
fn sweep(snap: &Snapshot) {
    let m = snap.meta().clone();
    assert_eq!(snap.author_names().len(), m.n_authors);
    assert_eq!(snap.page_names().len(), m.n_pages);
    let mut count = 0u64;
    for (a, p, _) in snap.events().iter() {
        assert!(a < m.n_authors && p < m.n_pages);
        count += 1;
    }
    assert_eq!(count, m.n_events);
    let off = snap.events().offsets();
    assert_eq!(off.len() as u64, u64::from(m.n_pages) + 1);
    assert_eq!(off.last(), Some(&m.n_events));
    for name in snap.author_names().iter().chain(snap.page_names().iter()) {
        std::hint::black_box(name.len());
    }
    // a reader builds its projection window from this without a check
    if let Some((d1, d2)) = m.window {
        assert!(0 <= d1 && d1 < d2, "window ({d1}, {d2}) opened");
    }
    std::hint::black_box(snap.describe());
}

proptest! {
    #[test]
    fn snapshot_roundtrip_is_lossless(input in inputs()) {
        let bytes = write(&input);
        let snap = Snapshot::from_bytes(bytes).expect("fresh snapshot opens");

        // interner-id stability: name i comes back as name i
        prop_assert_eq!(snap.author_names().len() as usize, input.authors.len());
        for (i, want) in input.authors.iter().enumerate() {
            prop_assert_eq!(snap.author_names().get(i as u32), want.as_str());
        }
        for (i, want) in input.pages.iter().enumerate() {
            prop_assert_eq!(snap.page_names().get(i as u32), want.as_str());
        }
        let got: Vec<(u32, u32, i64)> = snap.events().iter().collect();
        prop_assert_eq!(got, input.events);
        prop_assert_eq!(snap.meta().window, input.window);
        sweep(&snap);
    }

    #[test]
    fn bit_flips_never_panic(input in inputs(), byte in 0usize..4096, bit in 0u8..8) {
        let mut bytes = write(&input);
        let idx = byte % bytes.len();
        bytes[idx] ^= 1 << bit;
        // Damage must either be rejected with a typed error or (if it landed
        // somewhere genuinely unchecked) leave every accessor panic-free.
        if let Ok(snap) = Snapshot::from_bytes(bytes) {
            sweep(&snap);
        }
    }

    #[test]
    fn truncations_never_panic(input in inputs(), keep in 0usize..4096) {
        let bytes = write(&input);
        let keep = keep % (bytes.len() + 1);
        match Snapshot::from_bytes(&bytes[..keep]) {
            // only the untruncated prefix may open; anything shorter must
            // be caught by the bounds/checksum validation
            Ok(snap) => {
                prop_assert_eq!(keep, bytes.len());
                sweep(&snap);
            }
            Err(e) => {
                std::hint::black_box(&e);
            }
        }
    }
}

#[test]
fn bad_magic_is_typed() {
    let mut w = SnapshotWriter::new();
    w.authors(["a"].into_iter()).unwrap();
    w.pages(["p"].into_iter()).unwrap();
    w.events(&[(0, 0, 1)]).unwrap();
    let mut bytes = w.to_bytes().unwrap();
    bytes[..8].copy_from_slice(b"NOTASNAP");
    match Snapshot::from_bytes(bytes) {
        Err(StoreError::BadMagic { found }) => assert_eq!(&found, b"NOTASNAP"),
        Err(other) => panic!("expected BadMagic, got {other}"),
        Ok(_) => panic!("forged magic must not open"),
    }
}

#[test]
fn future_version_is_typed() {
    let mut w = SnapshotWriter::new();
    w.authors(["a"].into_iter()).unwrap();
    w.pages(["p"].into_iter()).unwrap();
    w.events(&[(0, 0, 1)]).unwrap();
    let mut bytes = w.to_bytes().unwrap();
    bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&(VERSION + 7).to_le_bytes());
    match Snapshot::from_bytes(bytes) {
        Err(StoreError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, VERSION + 7);
            assert_eq!(supported, VERSION);
        }
        Err(other) => panic!("expected UnsupportedVersion, got {other}"),
        Ok(_) => panic!("future version must not open"),
    }
}

/// splitmix64: the mutation loop's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self) -> Vec<u8> {
        (0..1 + self.below(8)).map(|_| self.next() as u8).collect()
    }
}

/// Make a mutated image look intact to everything but structural validation:
/// sections at or after `at` move by `grew` bytes, the one holding `at`
/// changes length by it, and every checksum is recomputed.
fn repair(bytes: &mut [u8], at: usize, grew: i64) {
    let n = match bytes.get(12..16) {
        Some(n) => u32::from_le_bytes(n.try_into().unwrap()) as usize,
        None => return,
    };
    for entry in (0..n).map(|i| 16 + i * 28) {
        let Some(field) = bytes.get(entry + 4..entry + 20) else {
            return;
        };
        let mut offset = u64::from_le_bytes(field[..8].try_into().unwrap());
        let mut len = u64::from_le_bytes(field[8..].try_into().unwrap());
        if offset >= at as u64 {
            offset = offset.saturating_add_signed(grew);
        } else if offset.saturating_add(len) > at as u64 {
            len = len.saturating_add_signed(grew);
        }
        let section = usize::try_from(offset)
            .ok()
            .zip(usize::try_from(offset.saturating_add(len)).ok())
            .and_then(|(lo, hi)| bytes.get(lo..hi));
        let Some(sum) = section.map(checksum) else {
            continue;
        };
        bytes[entry + 4..entry + 12].copy_from_slice(&offset.to_le_bytes());
        bytes[entry + 12..entry + 20].copy_from_slice(&len.to_le_bytes());
        bytes[entry + 20..entry + 28].copy_from_slice(&sum.to_le_bytes());
    }
}

/// Name table `k`'s section in `image`: where it lies, its names in stored
/// (byte) order and its ranks, past its 12-byte header (count `u32`, byte
/// length `u64`).
fn name_table(image: &[u8], k: u32) -> (std::ops::Range<usize>, Vec<Vec<u8>>, Vec<u32>) {
    let n = u32::from_le_bytes(image[12..16].try_into().unwrap()) as usize;
    let field = |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap()) as usize;
    let entry = (0..n)
        .map(|i| 16 + i * 28)
        .find(|&e| u32::from_le_bytes(image[e..e + 4].try_into().unwrap()) == k)
        .unwrap();
    let (at, len) = (field(entry + 4), field(entry + 12));
    let section = &image[at..at + len];
    let count = u32::from_le_bytes(section[..4].try_into().unwrap()) as usize;
    let u32s = |from: usize| -> Vec<u32> {
        let column = &section[from..from + 4 * count];
        column
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
            .collect()
    };
    let ends = u32s(12);
    let bytes = &section[12 + 4 * count..];
    let mut lo = 0;
    let names = ends
        .iter()
        .map(|&end| {
            let name = bytes[lo..end as usize].to_vec();
            lo = end as usize;
            name
        })
        .collect();
    (at..at + len, names, u32s(len - 4 * count))
}

/// [`name_table`]'s inverse.
fn name_section(names: &[Vec<u8>], ranks: &[u32]) -> Vec<u8> {
    let total: usize = names.iter().map(Vec::len).sum();
    let mut out = (names.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&(total as u64).to_le_bytes());
    let mut end = 0u32;
    for name in names {
        end += name.len() as u32;
        out.extend_from_slice(&end.to_le_bytes());
    }
    names.iter().for_each(|name| out.extend_from_slice(name));
    ranks
        .iter()
        .for_each(|r| out.extend_from_slice(&r.to_le_bytes()));
    out
}

/// Multi-byte damage — overwritten runs, insertions, deletions, truncations,
/// swapped directory entries — each tried as it is and with the directory
/// repaired around it, so structural validation is reached rather than the
/// checksum alone. Never a panic: a typed error, or a snapshot every
/// accessor can walk. Then damage aimed at either name table behind a
/// repaired checksum: two names swapped or one written over another of its
/// length is always refused, a permutation of the ranks always opens.
#[test]
fn multi_byte_mutations_never_panic_even_behind_the_checksum() {
    let mut w = SnapshotWriter::new();
    w.authors(["ann", "bob", "cy", "dee"].into_iter()).unwrap();
    w.pages(["p0", "p1", "empty", "p3"].into_iter()).unwrap();
    w.events(&[
        (0, 0, -5),
        (1, 0, -5),
        (1, 0, 900),
        (3, 1, i64::MIN),
        (2, 1, i64::MAX),
        (0, 3, 7),
        (0, 3, 7),
        (2, 3, 300),
    ])
    .unwrap();
    w.window(0, 60).unwrap();
    let image = w.to_bytes().unwrap();

    let mut rng = Rng(0x5eed_2021);
    let (mut opened, mut refused) = (0u32, std::collections::BTreeMap::<&str, u32>::new());
    for _ in 0..2500 {
        let mut bytes = image.clone();
        let at = rng.below(bytes.len());
        let grew = match rng.below(5) {
            0 => {
                for (slot, b) in bytes[at..].iter_mut().zip(rng.bytes()) {
                    *slot = b;
                }
                0
            }
            1 => {
                let extra = rng.bytes();
                bytes.splice(at..at, extra.iter().copied());
                extra.len() as i64
            }
            2 => {
                let end = (at + 1 + rng.below(8)).min(bytes.len());
                bytes.drain(at..end);
                at as i64 - end as i64
            }
            3 => {
                bytes.truncate(at);
                0
            }
            _ => {
                // four entries, and slot 4: the first 28 bytes past them
                let (i, j) = (16 + rng.below(5) * 28, 16 + rng.below(5) * 28);
                for k in 0..28 {
                    bytes.swap(i + k, j + k);
                }
                0
            }
        };
        let mut repaired = bytes.clone();
        repair(&mut repaired, at, grew);
        for candidate in [bytes, repaired] {
            match Snapshot::from_bytes(candidate) {
                Ok(snap) => {
                    sweep(&snap);
                    opened += 1;
                }
                Err(e) => {
                    let class = match e {
                        StoreError::Io(_) => "io",
                        StoreError::BadMagic { .. } => "magic",
                        StoreError::UnsupportedVersion { .. } => "version",
                        StoreError::Truncated { .. } => "truncated",
                        StoreError::ChecksumMismatch { .. } => "checksum",
                        StoreError::Corrupt { .. } => "corrupt",
                        StoreError::Unsupported { .. } => "unsupported",
                    };
                    *refused.entry(class).or_default() += 1;
                }
            }
        }
    }
    // the loop is only worth its time if it reaches past the directory
    assert!(opened > 100, "opened {opened}, refused {refused:?}");
    for class in ["magic", "version", "truncated", "checksum", "corrupt"] {
        assert!(refused.contains_key(class), "no {class} in {refused:?}");
    }
    assert!(refused["corrupt"] > 1000, "{refused:?}");

    for round in 0..300 {
        let (range, mut names, mut ranks) = name_table(&image, 2 + rng.below(2) as u32);
        let mutation = round % 3;
        match mutation {
            0 => {
                let (i, j) = (rng.below(4), rng.below(3));
                names.swap(i, if j < i { j } else { j + 1 });
            }
            1 => {
                let same_length: Vec<(usize, usize)> = (0..4)
                    .flat_map(|i| (0..4).map(move |j| (i, j)))
                    .filter(|&(i, j)| i != j && names[i].len() == names[j].len())
                    .collect();
                let (i, j) = same_length[rng.below(same_length.len())];
                names[j] = names[i].clone();
            }
            _ => (1..4).rev().for_each(|r| ranks.swap(r, rng.below(r + 1))),
        }
        let mut bytes = image.clone();
        bytes[range.clone()].copy_from_slice(&name_section(&names, &ranks));
        repair(&mut bytes, range.start + 1, 0);
        match Snapshot::from_bytes(bytes) {
            Ok(snap) if mutation == 2 => sweep(&snap),
            Err(StoreError::Corrupt { .. }) if mutation != 2 => {}
            other => panic!("name mutation {mutation}: {:?}", other.err()),
        }
    }
}
