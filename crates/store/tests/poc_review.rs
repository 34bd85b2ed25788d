//! Review PoC: crafted AUTHOR_NAMES section whose declared total byte length
//! wraps the `need` computation in NamesView::parse, bypassing the bounds
//! check and panicking on the end-offset or rank column slice.

use coordination_store::snapshot::checksum;
use coordination_store::{Snapshot, MAGIC, VERSION};

#[test]
fn crafted_name_table_should_not_panic() {
    // AUTHOR_NAMES: count = 2^30 (end offsets and ranks 2^32 bytes each),
    // total chosen so that the header + both columns + total wraps mod 2^64 to
    // exactly section.len().
    let count: u32 = 1 << 30;
    let ends_len: u64 = 2 * u64::from(count) * 4;
    let names_header = 4 + 8; // count u32, total u64
    let section_len: u64 = names_header + 64;
    let total = section_len
        .wrapping_sub(names_header)
        .wrapping_sub(ends_len);
    let mut names = count.to_le_bytes().to_vec();
    names.extend_from_slice(&total.to_le_bytes());
    names.resize(section_len as usize, 0);

    // META: n_authors irrelevant (cross-check happens after the panic site).
    let mut meta = Vec::new();
    meta.extend_from_slice(&1u32.to_le_bytes()); // n_authors
    meta.extend_from_slice(&1u32.to_le_bytes()); // n_pages
    meta.extend_from_slice(&0u64.to_le_bytes()); // n_events
    meta.extend_from_slice(&0i64.to_le_bytes()); // min_ts
    meta.extend_from_slice(&0i64.to_le_bytes()); // max_ts
    meta.push(0); // no window

    // PAGE_NAMES: one name "p", of rank 0.
    let mut pages = 1u32.to_le_bytes().to_vec();
    pages.extend_from_slice(&1u64.to_le_bytes());
    pages.extend_from_slice(&1u32.to_le_bytes());
    pages.push(b'p');
    pages.extend_from_slice(&0u32.to_le_bytes());

    // ROWS: narrow layout, no comments; one page, so two zero offsets after
    // the 32-byte header, padded to start 8-aligned in the file.
    let header_len = 16 + 4 * 28;
    let rows_at = header_len + meta.len() + names.len() + pages.len();
    let pad = (8 - (rows_at + 32) % 8) % 8;
    let mut rows = Vec::new();
    rows.extend_from_slice(&1u32.to_le_bytes()); // narrow
    rows.extend_from_slice(&(pad as u32).to_le_bytes());
    rows.extend_from_slice(&0i64.to_le_bytes()); // t0
    rows.extend_from_slice(&1u64.to_le_bytes()); // n_pages
    rows.extend_from_slice(&0u64.to_le_bytes()); // n_events
    rows.resize(rows.len() + pad + 16, 0);

    let sections: Vec<(u32, &[u8])> = vec![(1, &meta), (2, &names), (3, &pages), (7, &rows)];
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    let mut offset = header_len as u64;
    for (k, s) in &sections {
        out.extend_from_slice(&k.to_le_bytes());
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&(s.len() as u64).to_le_bytes());
        out.extend_from_slice(&checksum(s).to_le_bytes());
        offset += s.len() as u64;
    }
    for (_, s) in &sections {
        out.extend_from_slice(s);
    }

    // Contract: corrupt input is a typed error, never a panic.
    assert!(Snapshot::from_bytes(out).is_err());
}
