//! Global Arrays: block-distributed dense f64 arrays over shmem.
//!
//! A [`GlobalArray`] of `len` elements is block-distributed: PE `p` owns
//! elements `[p*chunk, (p+1)*chunk)` (the last block may be short), stored
//! at the same symmetric-heap offset on every PE. `get`/`put`/`acc`
//! operate on arbitrary `[lo, hi)` element ranges and split themselves
//! across owners transparently — the application never computes ownership.
//! This module is layout only: it names a PE and a heap offset for every
//! element, the caller's own included, and [`Shmem`] decides what is
//! local.

use std::ops::Range;

use fm_core::device::NetDevice;

use crate::shmem::Shmem;

/// A handle to one distributed array (plain metadata — creation is just
/// arithmetic; all PEs must construct it with identical arguments, like a
/// `GA_Create` collective).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalArray {
    /// Total elements.
    len: usize,
    /// Byte offset of the local block in every PE's symmetric heap.
    base: usize,
    /// Elements per PE block.
    chunk: usize,
}

impl GlobalArray {
    /// Describe a `len`-element array stored at `base_offset` across
    /// `n_pes` PEs.
    ///
    /// # Panics
    /// Panics if `len` is zero or `n_pes` is zero.
    pub fn new(len: usize, base_offset: usize, n_pes: usize) -> Self {
        assert!(len > 0 && n_pes > 0);
        GlobalArray::blocked(len, base_offset, len.div_ceil(n_pes))
    }

    /// A `len`-element array at `base` in blocks of `chunk` elements.
    fn blocked(len: usize, base: usize, chunk: usize) -> Self {
        GlobalArray { len, base, chunk }
    }

    /// Total elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Never empty (enforced at construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Elements per PE block.
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// Heap bytes each PE must reserve for this array.
    pub fn bytes_per_pe(&self) -> usize {
        self.chunk * 8
    }

    /// Owner PE and its local element index for global index `i`.
    pub fn owner_of(&self, i: usize) -> (usize, usize) {
        assert!(i < self.len, "index {i} out of bounds ({})", self.len);
        (i / self.chunk, i % self.chunk)
    }

    /// Split `[lo, hi)` into per-owner (pe, local_lo, global_lo, count)
    /// spans.
    fn spans(&self, lo: usize, hi: usize) -> Vec<(usize, usize, usize, usize)> {
        assert!(lo <= hi && hi <= self.len, "range {lo}..{hi} out of bounds");
        let mut out = Vec::new();
        let mut g = lo;
        while g < hi {
            let (pe, local) = self.owner_of(g);
            let run = (self.chunk - local).min(hi - g);
            out.push((pe, local, g, run));
            g += run;
        }
        out
    }

    /// Read elements `[lo, hi)` (blocking; crosses owners as needed).
    pub fn get<D: NetDevice + 'static>(&self, sh: &Shmem<D>, lo: usize, hi: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(hi - lo);
        for (pe, local, _g, run) in self.spans(lo, hi) {
            let bytes = sh.get(pe, self.base + local * 8, run * 8);
            out.extend(bytes.as_chunks().0.iter().map(|&c| f64::from_le_bytes(c)));
        }
        out
    }

    /// Write `data` to elements `[lo, lo + data.len())`. Remotely visible
    /// after [`Shmem::quiet`].
    pub fn put<D: NetDevice + 'static>(&self, sh: &Shmem<D>, lo: usize, data: &[f64]) {
        let bytes: Vec<u8> = data.iter().flat_map(|x| x.to_le_bytes()).collect();
        for (pe, local, g, run) in self.spans(lo, lo + data.len()) {
            sh.put(pe, self.base + local * 8, &bytes[(g - lo) * 8..][..run * 8]);
        }
    }

    /// Accumulate (elementwise add) `data` into elements
    /// `[lo, lo + data.len())`. Atomic per element at each owner (the
    /// owner's handler applies it). Remotely visible after
    /// [`Shmem::quiet`].
    pub fn acc<D: NetDevice + 'static>(&self, sh: &Shmem<D>, lo: usize, data: &[f64]) {
        for (pe, local, g, run) in self.spans(lo, lo + data.len()) {
            sh.accumulate_f64(pe, self.base + local * 8, &data[g - lo..][..run]);
        }
    }
}

/// A block-row-distributed dense 2-D f64 array: the [`GlobalArray`] of
/// its `rows × cols` elements, row-major, in blocks of `row_chunk` whole
/// rows, so PE `p` owns rows `[p*row_chunk, (p+1)*row_chunk)`. Sections
/// (`[row_lo,row_hi) × [col_lo,col_hi)`) can be read, written, and
/// accumulated one-sidedly; each row segment of a section lives entirely
/// on one owner, so a section op is one 1-D op, and one shmem op, per
/// row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalArray2D {
    cols: usize,
    flat: GlobalArray,
}

impl GlobalArray2D {
    /// Describe a `rows × cols` array at `base_offset` across `n_pes` PEs.
    pub fn new(rows: usize, cols: usize, base_offset: usize, n_pes: usize) -> Self {
        assert!(rows > 0 && cols > 0 && n_pes > 0);
        let flat = GlobalArray::blocked(rows * cols, base_offset, rows.div_ceil(n_pes) * cols);
        GlobalArray2D { cols, flat }
    }

    /// Array shape (rows, cols).
    pub fn shape(&self) -> (usize, usize) {
        (self.flat.len / self.cols, self.cols)
    }

    /// Rows per PE block.
    pub fn row_chunk(&self) -> usize {
        self.flat.chunk / self.cols
    }

    /// Heap bytes each PE must reserve.
    pub fn bytes_per_pe(&self) -> usize {
        self.flat.bytes_per_pe()
    }

    /// Owner PE and its local row index for global row `r`.
    pub fn owner_of_row(&self, r: usize) -> (usize, usize) {
        let (pe, local) = self.flat.owner_of(r * self.cols);
        (pe, local / self.cols)
    }

    /// Each row's segment of the section `r × c`, as a range of flat
    /// indices.
    fn rows(&self, r: Range<usize>, c: Range<usize>) -> impl Iterator<Item = Range<usize>> {
        let (rows, cols) = self.shape();
        assert!(
            r.start <= r.end && r.end <= rows && c.start <= c.end && c.end <= cols,
            "section {r:?} x {c:?} out of bounds ({rows}x{cols})"
        );
        r.map(move |i| i * cols + c.start..i * cols + c.end)
    }

    /// Read a rectangular section (row-major order in the result).
    pub fn get_section<D: NetDevice + 'static>(
        &self,
        sh: &Shmem<D>,
        row_lo: usize,
        row_hi: usize,
        col_lo: usize,
        col_hi: usize,
    ) -> Vec<f64> {
        self.rows(row_lo..row_hi, col_lo..col_hi)
            .flat_map(|r| self.flat.get(sh, r.start, r.end))
            .collect()
    }

    /// Write a rectangular section (`data` row-major, length
    /// `(row_hi-row_lo)*(col_hi-col_lo)`). Remotely visible after
    /// [`Shmem::quiet`].
    pub fn put_section<D: NetDevice + 'static>(
        &self,
        sh: &Shmem<D>,
        row_lo: usize,
        row_hi: usize,
        col_lo: usize,
        col_hi: usize,
        data: &[f64],
    ) {
        let rows = self.rows(row_lo..row_hi, col_lo..col_hi);
        let w = col_hi - col_lo;
        assert_eq!(data.len(), (row_hi - row_lo) * w, "section size mismatch");
        for (i, r) in rows.enumerate() {
            self.flat.put(sh, r.start, &data[i * w..][..w]);
        }
    }

    /// Accumulate (elementwise add) into a rectangular section. Atomic per
    /// element at each owner. Remotely visible after [`Shmem::quiet`].
    pub fn acc_section<D: NetDevice + 'static>(
        &self,
        sh: &Shmem<D>,
        row_lo: usize,
        row_hi: usize,
        col_lo: usize,
        col_hi: usize,
        data: &[f64],
    ) {
        let rows = self.rows(row_lo..row_hi, col_lo..col_hi);
        let w = col_hi - col_lo;
        assert_eq!(data.len(), (row_hi - row_lo) * w, "section size mismatch");
        for (i, r) in rows.enumerate() {
            self.flat.acc(sh, r.start, &data[i * w..][..w]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ownership_is_block_distributed() {
        let ga = GlobalArray::new(10, 0, 4); // chunk = 3
        assert_eq!(ga.chunk(), 3);
        assert_eq!(ga.owner_of(0), (0, 0));
        assert_eq!(ga.owner_of(2), (0, 2));
        assert_eq!(ga.owner_of(3), (1, 0));
        assert_eq!(ga.owner_of(9), (3, 0));
        assert_eq!(ga.bytes_per_pe(), 24);
        assert_eq!(ga.len(), 10);
        assert!(!ga.is_empty());
    }

    #[test]
    fn spans_split_across_owners() {
        let ga = GlobalArray::new(10, 0, 4);
        // [2, 8) covers the tail of PE0, all of PE1, and head of PE2.
        let s = ga.spans(2, 8);
        assert_eq!(s, vec![(0, 2, 2, 1), (1, 0, 3, 3), (2, 0, 6, 2)]);
        assert!(ga.spans(5, 5).is_empty(), "empty range");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_panics() {
        let ga = GlobalArray::new(10, 0, 4);
        let _ = ga.spans(5, 11);
    }

    #[test]
    fn ga2d_row_ownership() {
        let ga = GlobalArray2D::new(10, 6, 0, 3); // row_chunk = 4
        assert_eq!(ga.shape(), (10, 6));
        assert_eq!(ga.row_chunk(), 4);
        assert_eq!(ga.owner_of_row(0), (0, 0));
        assert_eq!(ga.owner_of_row(3), (0, 3));
        assert_eq!(ga.owner_of_row(4), (1, 0));
        assert_eq!(ga.owner_of_row(9), (2, 1));
        assert_eq!(ga.bytes_per_pe(), 4 * 6 * 8);
    }

    #[test]
    fn ga2d_is_the_row_block_layout_over_the_flat_array() {
        // The block-row layout written out on its own: PE `r / row_chunk`
        // holds row `r` at local row `r % row_chunk`, row-major.
        for n_pes in 1..=5 {
            for rows in 1..=7 {
                for cols in 1..=4 {
                    let base = 64;
                    let ga = GlobalArray2D::new(rows, cols, base, n_pes);
                    let row_chunk = rows.div_ceil(n_pes);
                    assert_eq!(ga.shape(), (rows, cols));
                    assert_eq!(ga.row_chunk(), row_chunk);
                    assert_eq!(ga.bytes_per_pe(), row_chunk * cols * 8);
                    for r in 0..rows {
                        let (pe, local_row) = (r / row_chunk, r % row_chunk);
                        assert_eq!(ga.owner_of_row(r), (pe, local_row));
                        for c in 0..cols {
                            let local = local_row * cols + c;
                            assert_eq!(ga.flat.owner_of(r * cols + c), (pe, local));
                        }
                        // Any segment of one row is one span, one shmem op,
                        // at the row's own heap offset.
                        for (lo, hi) in [(0, cols), (cols / 2, cols), (0, 1)] {
                            let seg = ga.rows(r..r + 1, lo..hi).next().unwrap();
                            let spans = ga.flat.spans(seg.start, seg.end);
                            let off = base + (local_row * cols + lo) * 8;
                            assert_eq!(spans.len(), 1, "{rows}x{cols} over {n_pes}, row {r}");
                            let (span_pe, span_local, _, run) = spans[0];
                            assert_eq!((span_pe, base + span_local * 8, run), (pe, off, hi - lo));
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn ga2d_section_bounds_checked() {
        let ga = GlobalArray2D::new(4, 4, 0, 2);
        let _ = ga.rows(0..5, 0..4);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn ga2d_put_size_checked() {
        use crate::shmem::Shmem;
        use fm_core::device::LoopbackPair;
        use fm_core::Fm2Engine;
        use fm_model::MachineProfile;
        let (d, _d2) = LoopbackPair::new(8);
        let sh = Shmem::new(Fm2Engine::new(d, MachineProfile::ppro200_fm2()), 1024);
        let ga = GlobalArray2D::new(4, 4, 0, 2);
        ga.put_section(&sh, 0, 2, 0, 2, &[1.0; 3]); // needs 4
    }
}
