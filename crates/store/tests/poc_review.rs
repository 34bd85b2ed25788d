//! Review PoC: crafted AUTHOR_NAMES section whose declared total byte length
//! wraps the `need` computation in NamesView::parse, bypassing the bounds
//! check and panicking on the end-offset or rank column slice.

use coordination_store::snapshot::checksum;
use coordination_store::{Snapshot, MAGIC, VERSION};

fn varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

#[test]
fn crafted_name_table_should_not_panic() {
    // AUTHOR_NAMES: count = 2^30 (end offsets and ranks 2^32 bytes each),
    // total chosen so that pos + both columns + total wraps mod 2^64 to
    // exactly section.len().
    let count: u64 = 1 << 30;
    let ends_len: u64 = 2 * count * 4;
    let mut names = Vec::new();
    varint(&mut names, count);
    let header_guess = names.len() + 10; // total will encode as 10 bytes
    let section_len: u64 = (header_guess + 64) as u64;
    let total = section_len
        .wrapping_sub(header_guess as u64)
        .wrapping_sub(ends_len);
    varint(&mut names, total);
    assert_eq!(names.len(), header_guess, "varint sizing assumption");
    names.resize(section_len as usize, 0);

    // META: n_authors irrelevant (cross-check happens after the panic site).
    let mut meta = Vec::new();
    varint(&mut meta, 1); // n_authors
    varint(&mut meta, 1); // n_pages
    varint(&mut meta, 0); // n_events
    meta.push(0); // min_ts zigzag(0)
    meta.push(0); // max_ts
    meta.push(0); // no window

    // PAGE_NAMES: one name "p", of rank 0.
    let mut pages = Vec::new();
    varint(&mut pages, 1);
    varint(&mut pages, 1);
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
