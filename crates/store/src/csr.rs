//! Delta-varint compressed CSR adjacency, decoded block-wise.
//!
//! Neighbor lists are strictly ascending (the [`GraphRef`] contract), so
//! each id is stored as a varint delta from its predecessor — one byte for
//! the dense-id common case. Entries are framed in blocks of `BLOCK`
//! (ids first, then the block's weights), and the decoding iterator refills
//! one block at a time into a stack buffer, so the galloping/adaptive
//! intersection kernels and the triangle survey run over compressed bytes
//! without ever materializing a vertex's full list.
//!
//! Layout of a CSR blob (inside a checksummed snapshot section):
//!
//! ```text
//! n        varint  vertex count
//! m        varint  directed entry count (sum of degrees)
//! offsets  (n+1) × u64 LE   byte offsets into `lists`, offsets[0] = 0
//! lists    per vertex: varint degree, then ceil(d / BLOCK) blocks:
//!            BLOCK × varint id-delta, then BLOCK × varint weight
//! ```
//!
//! The offsets table is fixed-width on purpose: random access to vertex `u`
//! is two unaligned `u64` loads, no decode, no index to build at open time.

use coordination_graph::GraphRef;

use crate::err::StoreError;
use crate::varint;

/// Entries per decode block: big enough to amortize refill overhead, small
/// enough that two block buffers live comfortably on the stack.
pub(crate) const BLOCK: usize = 128;

/// Encode `n` adjacency rows produced by `fill` (strictly ascending by id)
/// into `out`. `fill` is called once per vertex in id order and appends that
/// vertex's `(neighbor, weight)` entries to the scratch row.
pub(crate) fn encode_rows(
    n: u32,
    mut fill: impl FnMut(u32, &mut Vec<(u32, u64)>),
    out: &mut Vec<u8>,
) {
    let mut lists: Vec<u8> = Vec::new();
    let mut offsets: Vec<u64> = Vec::with_capacity(n as usize + 1);
    offsets.push(0);
    let mut row: Vec<(u32, u64)> = Vec::new();
    let mut m = 0u64;
    for u in 0..n {
        row.clear();
        fill(u, &mut row);
        debug_assert!(
            row.windows(2).all(|w| w[0].0 < w[1].0),
            "adjacency row {u} is not strictly ascending"
        );
        m += row.len() as u64;
        varint::write_u64(&mut lists, row.len() as u64);
        let mut prev = 0u32;
        for chunk in row.chunks(BLOCK) {
            for &(v, _) in chunk {
                varint::write_u64(&mut lists, u64::from(v - prev));
                prev = v;
            }
            for &(_, w) in chunk {
                varint::write_u64(&mut lists, w);
            }
        }
        offsets.push(lists.len() as u64);
    }
    varint::write_u64(out, u64::from(n));
    varint::write_u64(out, m);
    for off in &offsets {
        out.extend_from_slice(&off.to_le_bytes());
    }
    out.extend_from_slice(&lists);
}

/// Encode any [`GraphRef`] (weights included) as a compressed CSR blob.
pub fn encode_graph<G: GraphRef>(g: &G, out: &mut Vec<u8>) {
    encode_rows(
        g.n_vertices(),
        |u, row| row.extend(g.neighbors_iter(u)),
        out,
    );
}

/// A borrowed, validated view over a compressed CSR blob. Implements
/// [`GraphRef`], so the survey/orientation/component machinery consumes it
/// exactly like a resident [`coordination_graph::CsrGraph`].
#[derive(Clone, Copy)]
pub struct CsrView<'a> {
    n: u32,
    m: u64,
    offsets: &'a [u8],
    lists: &'a [u8],
}

impl<'a> CsrView<'a> {
    /// Parse the blob header and slice the offsets/lists regions, with
    /// bounds checks. Content validation is [`CsrView::validate`].
    pub fn parse(bytes: &'a [u8]) -> Result<Self, StoreError> {
        let mut pos = 0usize;
        let n = varint::read_u32(bytes, &mut pos)?;
        let m = varint::read_u64(bytes, &mut pos)?;
        let off_len = (n as usize + 1)
            .checked_mul(8)
            .ok_or_else(|| StoreError::corrupt("csr offsets length overflows"))?;
        if bytes.len() - pos < off_len {
            return Err(StoreError::Truncated {
                what: "csr offsets",
                need: (pos + off_len) as u64,
                have: bytes.len() as u64,
            });
        }
        let offsets = &bytes[pos..pos + off_len];
        let lists = &bytes[pos + off_len..];
        let view = CsrView {
            n,
            m,
            offsets,
            lists,
        };
        if view.offset(0) != 0 || view.offset(n) != lists.len() as u64 {
            return Err(StoreError::corrupt(
                "csr offsets do not span the lists region",
            ));
        }
        Ok(view)
    }

    #[inline]
    fn offset(&self, i: u32) -> u64 {
        let at = i as usize * 8;
        u64::from_le_bytes(self.offsets[at..at + 8].try_into().expect("8-byte slot"))
    }

    /// Byte range of vertex `u`'s encoded list, or `None` if offsets are
    /// malformed (callers post-validation never see `None`).
    fn row_bytes(&self, u: u32) -> Option<&'a [u8]> {
        if u >= self.n {
            return None;
        }
        let lo = usize::try_from(self.offset(u)).ok()?;
        let hi = usize::try_from(self.offset(u + 1)).ok()?;
        self.lists.get(lo..hi)
    }

    /// Vertex count.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Degree of `u`: one varint decode, no list scan.
    pub(crate) fn degree(&self, u: u32) -> u32 {
        let Some(row) = self.row_bytes(u) else {
            return 0;
        };
        let mut pos = 0;
        varint::read_u32(row, &mut pos).unwrap_or(0)
    }

    /// Block-decoding iterator over `u`'s `(neighbor, weight)` entries.
    pub fn neighbors(&self, u: u32) -> NeighborIter<'a> {
        let row = self.row_bytes(u).unwrap_or(&[]);
        let mut pos = 0;
        let remaining = varint::read_u64(row, &mut pos).unwrap_or(0) as usize;
        NeighborIter {
            bytes: row,
            pos,
            remaining,
            prev: 0,
            ids: [0; BLOCK],
            ws: [0; BLOCK],
            len: 0,
            idx: 0,
        }
    }

    /// Full content validation: every row decodes exactly, ids are strictly
    /// ascending and `< max_target`, and degrees sum to `m`. Run once at
    /// snapshot open; afterwards the iterators are infallible.
    pub fn validate(&self, max_target: u32) -> Result<(), StoreError> {
        let mut total = 0u64;
        for u in 0..self.n {
            let lo = usize::try_from(self.offset(u))
                .map_err(|_| StoreError::corrupt("csr offset overflows"))?;
            let hi = usize::try_from(self.offset(u + 1))
                .map_err(|_| StoreError::corrupt("csr offset overflows"))?;
            let row = self.lists.get(lo..hi).ok_or_else(|| {
                StoreError::corrupt(format!("csr offsets for vertex {u} out of order"))
            })?;
            let mut pos = 0usize;
            let degree = varint::read_u64(row, &mut pos)?;
            total += degree;
            let mut prev = 0u64;
            let mut first = true;
            let degree =
                usize::try_from(degree).map_err(|_| StoreError::corrupt("csr degree overflows"))?;
            let mut done = 0usize;
            while done < degree {
                let take = (degree - done).min(BLOCK);
                for k in 0..take {
                    let delta = varint::read_u64(row, &mut pos)?;
                    if !first && delta == 0 {
                        return Err(StoreError::corrupt(format!(
                            "csr row {u} not strictly ascending"
                        )));
                    }
                    first = false;
                    prev = prev
                        .checked_add(delta)
                        .ok_or_else(|| StoreError::corrupt(format!("csr row {u} id overflows")))?;
                    if prev >= u64::from(max_target) {
                        return Err(StoreError::corrupt(format!(
                            "csr row {u} entry {} id {prev} >= {max_target}",
                            done + k
                        )));
                    }
                }
                for _ in 0..take {
                    varint::read_u64(row, &mut pos)?;
                }
                done += take;
            }
            if pos != row.len() {
                return Err(StoreError::corrupt(format!(
                    "csr row {u} has {} trailing bytes",
                    row.len() - pos
                )));
            }
        }
        if total != self.m {
            return Err(StoreError::corrupt(format!(
                "csr degree sum {total} != declared m {}",
                self.m
            )));
        }
        Ok(())
    }
}

/// Iterator over one vertex's compressed neighbor list, decoding one
/// `BLOCK` of entries at a time into stack buffers. Infallible by design:
/// malformed bytes (unreachable after [`CsrView::validate`]) end iteration.
pub struct NeighborIter<'a> {
    bytes: &'a [u8],
    pos: usize,
    remaining: usize,
    prev: u32,
    ids: [u32; BLOCK],
    ws: [u64; BLOCK],
    len: usize,
    idx: usize,
}

impl NeighborIter<'_> {
    fn refill(&mut self) {
        self.len = 0;
        self.idx = 0;
        let take = self.remaining.min(BLOCK);
        if take == 0 {
            return;
        }
        for k in 0..take {
            let Ok(delta) = varint::read_u64(self.bytes, &mut self.pos) else {
                self.remaining = 0;
                return;
            };
            let Some(v) = u64::from(self.prev)
                .checked_add(delta)
                .and_then(|v| u32::try_from(v).ok())
            else {
                self.remaining = 0;
                return;
            };
            self.ids[k] = v;
            self.prev = v;
        }
        for k in 0..take {
            let Ok(w) = varint::read_u64(self.bytes, &mut self.pos) else {
                self.remaining = 0;
                return;
            };
            self.ws[k] = w;
        }
        self.remaining -= take;
        self.len = take;
    }
}

impl Iterator for NeighborIter<'_> {
    type Item = (u32, u64);

    #[inline]
    fn next(&mut self) -> Option<(u32, u64)> {
        if self.idx == self.len {
            self.refill();
            if self.len == 0 {
                return None;
            }
        }
        let out = (self.ids[self.idx], self.ws[self.idx]);
        self.idx += 1;
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.remaining + (self.len - self.idx);
        (0, Some(left))
    }
}

impl GraphRef for CsrView<'_> {
    fn n_vertices(&self) -> u32 {
        self.n
    }

    fn neighbors_iter(&self, u: u32) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.neighbors(u)
    }

    fn degree_of(&self, u: u32) -> u32 {
        self.degree(u)
    }

    fn count_edges(&self) -> u64 {
        // Symmetric adjacency stores every undirected edge twice.
        self.m / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coordination_graph::CsrGraph;

    fn sample_graph() -> CsrGraph {
        let edges = vec![
            (0u32, 1u32, 3u64),
            (0, 2, 1),
            (1, 2, 7),
            (2, 4, 2),
            (3, 4, 9),
        ];
        CsrGraph::from_edges(5, edges)
    }

    #[test]
    fn roundtrip_matches_resident_graph() {
        let g = sample_graph();
        let mut blob = Vec::new();
        encode_graph(&g, &mut blob);
        let view = CsrView::parse(&blob).unwrap();
        view.validate(g.n()).unwrap();
        assert_eq!(view.n(), g.n());
        assert_eq!(view.count_edges(), g.m());
        for u in 0..g.n() {
            let resident: Vec<(u32, u64)> = g.neighbors_iter(u).collect();
            let compressed: Vec<(u32, u64)> = view.neighbors(u).collect();
            assert_eq!(resident, compressed, "vertex {u}");
            assert_eq!(view.degree(u), g.degree(u));
        }
    }

    #[test]
    fn long_rows_cross_block_boundaries() {
        let n = 1000u32;
        let mut blob = Vec::new();
        encode_rows(
            2,
            |u, row| {
                if u == 0 {
                    row.extend((0..n).map(|v| (v * 3, u64::from(v) + 1)));
                }
            },
            &mut blob,
        );
        let view = CsrView::parse(&blob).unwrap();
        view.validate(3 * n).unwrap();
        let decoded: Vec<(u32, u64)> = view.neighbors(0).collect();
        assert_eq!(decoded.len(), n as usize);
        assert_eq!(decoded[0], (0, 1));
        assert_eq!(decoded[999], (2997, 1000));
        assert_eq!(view.neighbors(1).count(), 0);
    }

    #[test]
    fn validate_rejects_out_of_range_targets() {
        let mut blob = Vec::new();
        encode_rows(1, |_, row| row.push((9, 0)), &mut blob);
        let view = CsrView::parse(&blob).unwrap();
        assert!(view.validate(10).is_ok());
        assert!(matches!(view.validate(9), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn truncated_blob_is_a_typed_error() {
        let g = sample_graph();
        let mut blob = Vec::new();
        encode_graph(&g, &mut blob);
        for cut in 0..blob.len() {
            if let Ok(view) = CsrView::parse(&blob[..cut]) {
                assert!(view.validate(g.n()).is_err(), "cut at {cut}");
            }
        }
    }
}
