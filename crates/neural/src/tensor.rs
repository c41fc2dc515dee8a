//! Minimal dense matrix/vector math used by the LSTM language model.
//!
//! The paper trains its model in Torch; this crate provides the small subset
//! of tensor operations an LSTM needs (dense matrix-vector products, AXPY,
//! element-wise nonlinearities) implemented directly over `Vec<f32>` so the
//! reproduction has no external numerical dependencies.
//!
//! # The unified accumulation order
//!
//! Every hot kernel in this module — serial matvec, the lane-blocked GEMM,
//! their [`PackedMatrix`] counterparts, the transposed backward GEMM and the
//! batched outer product — reduces each output element as a **left fold**:
//! the element's current value (bias, prior partial, accumulated gradient) is
//! the fold seed, and contribution terms are added one at a time in a fixed
//! canonical sequence (ascending `k`, ascending lane). A left fold is
//! invariant to where block boundaries fall — `((y + a) + b) + c` is the same
//! floating-point computation whether the partial lives in a register or was
//! spilled to memory between blocks — so cache blocking ([`BlockPlan`]),
//! row-panel packing, lane blocking and row-parallel splits over disjoint
//! output rows all preserve bitwise results *by construction*. This is what
//! lets batched sampling stay bitwise identical to serial sampling and
//! batch-1 training bitwise identical to the serial BPTT path at any model
//! scale, block shape or rayon thread count.

use rand::prelude::*;
use rand::rngs::StdRng;
use rayon::ParallelSliceMut;
use serde::{Deserialize, Serialize};

/// A dense row-major `rows x cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A matrix with entries drawn uniformly from `[-scale, scale]`.
    pub fn uniform(rows: usize, cols: usize, scale: f32, rng: &mut StdRng) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-scale..=scale))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Build from an explicit row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable access to the underlying data (row major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying data (row major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element setter.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// A view of row `r`.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `y = self * x` (matrix-vector product).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f32; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// `y = self * x` into a caller-provided buffer (no allocation).
    ///
    /// Rows are processed in blocks of [`MATVEC_ROW_BLOCK`] sharing one pass
    /// over `x` (see [`Matrix::matvec_add`]); each output element reduces in
    /// the unified left-fold order (seed 0, terms in ascending `k`), bitwise
    /// identical to the one-row-at-a-time formulation and to
    /// [`PackedMatrix::matvec_into`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn matvec_into(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec output mismatch");
        self.matvec_rows::<false>(x, y);
    }

    /// `y += self * x` (accumulating matrix-vector product).
    ///
    /// The serial-path reference kernel: rows are processed
    /// [`MATVEC_ROW_BLOCK`] at a time with one independent accumulator per
    /// row, so a single pass over `x` serves four dot products and the four
    /// dependency chains overlap in the FMA pipeline. Per output element the
    /// reduction is the unified left fold — the accumulator is seeded with
    /// the current `y` value and terms are added in ascending `k` — so this
    /// kernel, [`Matrix::matmul_add_into`] at any width and the packed
    /// k-blocked kernels are all bitwise identical per lane.
    pub fn matvec_add(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec output mismatch");
        self.matvec_rows::<true>(x, y);
    }

    /// Shared row-blocked matrix-vector kernel: `ADD` selects accumulate
    /// (`y += A x`, fold seeded with `y`) versus overwrite (`y = A x`, fold
    /// seeded with zero).
    fn matvec_rows<const ADD: bool>(&self, x: &[f32], y: &mut [f32]) {
        let cols = self.cols;
        let mut rows_iter = self.data.chunks_exact(cols * MATVEC_ROW_BLOCK);
        let mut y_iter = y.chunks_exact_mut(MATVEC_ROW_BLOCK);
        for (block, yb) in rows_iter.by_ref().zip(y_iter.by_ref()) {
            let r0 = &block[..cols];
            let r1 = &block[cols..2 * cols];
            let r2 = &block[2 * cols..3 * cols];
            let r3 = &block[3 * cols..4 * cols];
            let mut acc = [0.0f32; MATVEC_ROW_BLOCK];
            if ADD {
                acc.copy_from_slice(yb);
            }
            for k in 0..cols {
                let xv = x[k];
                acc[0] += r0[k] * xv;
                acc[1] += r1[k] * xv;
                acc[2] += r2[k] * xv;
                acc[3] += r3[k] * xv;
            }
            yb.copy_from_slice(&acc);
        }
        for (dst, row) in y_iter
            .into_remainder()
            .iter_mut()
            .zip(rows_iter.remainder().chunks_exact(cols.max(1)))
        {
            let mut acc = if ADD { *dst } else { 0.0f32 };
            for (a, b) in row.iter().zip(x.iter()) {
                acc += a * b;
            }
            *dst = acc;
        }
    }

    /// `y += self * x` over a batch of `width` column vectors (GEMM).
    ///
    /// `x` holds a `cols x width` matrix and `y` a `rows x width` matrix,
    /// both row-major — equivalently, `width` column vectors stored
    /// interleaved, column `b` of `x` being `x[k * width + b]` for
    /// `k in 0..cols`. This is the batched hot path of LSTM sampling: each of
    /// the `width` lanes is an independent sample stream sharing the weights.
    ///
    /// The kernel is blocked over [`GEMM_LANES`] columns with one independent
    /// accumulator per lane, so the compiler can keep the lanes in vector
    /// registers; crucially, each output element reduces in the unified
    /// left-fold order (seed `y`, terms in ascending `k`) — exactly the order
    /// [`Matrix::matvec_add`] and the packed k-blocked kernels use — so a
    /// batched product is bitwise identical to `width` separate matrix-vector
    /// products. The multi-stream sampler's determinism guarantee (batched
    /// sampling == serial sampling) rests on this property; see
    /// `batched_gemm_bitwise_equals_matvec` in this module's tests.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols * width` or `y.len() != rows * width`.
    pub fn matmul_add_into(&self, x: &[f32], width: usize, y: &mut [f32]) {
        assert_eq!(x.len(), self.cols * width, "matmul input mismatch");
        assert_eq!(y.len(), self.rows * width, "matmul output mismatch");
        // One lane is exactly a matrix-vector product (bitwise, per the
        // accumulation-order guarantee below); take the row-blocked kernel.
        if width == 1 {
            return self.matvec_add(x, y);
        }
        // Rows are processed in pairs sharing one pass over `x`: two
        // independent accumulator sets double the in-flight FMA chains
        // (hiding their latency) and halve the loads of `x`. Per output
        // element the fold order over `k` is untouched.
        let mut r = 0;
        while r + 2 <= self.rows {
            let row0 = self.row(r);
            let row1 = self.row(r + 1);
            let (y0, y1) = y[r * width..(r + 2) * width].split_at_mut(width);
            let mut b0 = 0;
            while b0 + GEMM_LANES <= width {
                gemm_lane_block2::<GEMM_LANES>(row0, row1, x, width, b0, y0, y1);
                b0 += GEMM_LANES;
            }
            // Half-width block so ragged batch tails (width % 8 in 4..8)
            // still get independent accumulators instead of the scalar path.
            if b0 + GEMM_LANES / 2 <= width {
                gemm_lane_block2::<{ GEMM_LANES / 2 }>(row0, row1, x, width, b0, y0, y1);
                b0 += GEMM_LANES / 2;
            }
            for b in b0..width {
                let mut acc0 = y0[b];
                let mut acc1 = y1[b];
                for ((&w0, &w1), xk) in row0.iter().zip(row1.iter()).zip(x.chunks_exact(width)) {
                    acc0 += w0 * xk[b];
                    acc1 += w1 * xk[b];
                }
                y0[b] = acc0;
                y1[b] = acc1;
            }
            r += 2;
        }
        if r < self.rows {
            let row = self.row(r);
            let yrow = &mut y[r * width..(r + 1) * width];
            let mut b0 = 0;
            while b0 + GEMM_LANES <= width {
                gemm_lane_block::<GEMM_LANES>(row, x, width, b0, yrow);
                b0 += GEMM_LANES;
            }
            if b0 + GEMM_LANES / 2 <= width {
                gemm_lane_block::<{ GEMM_LANES / 2 }>(row, x, width, b0, yrow);
                b0 += GEMM_LANES / 2;
            }
            for b in b0..width {
                let mut acc = yrow[b];
                for (&w, xk) in row.iter().zip(x.chunks_exact(width)) {
                    acc += w * xk[b];
                }
                yrow[b] = acc;
            }
        }
    }

    /// `self * other` (matrix-matrix product), allocating the result.
    ///
    /// # Panics
    ///
    /// Panics if `other.rows() != cols`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(other.rows(), self.cols, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols());
        self.matmul_add_into(other.data(), other.cols(), &mut out.data);
        out
    }

    /// `y += self^T * x` (transposed matrix-vector product), used in
    /// backpropagation. Per output element `c` the reduction is the unified
    /// left fold: seed `y[c]`, then `w[r][c] * x[r]` for `r` ascending — the
    /// same order the lane-blocked transposed GEMM and the packed transposed
    /// kernels use, so single-lane batched backward passes are bitwise
    /// identical to this serial one.
    pub fn matvec_transpose_add(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.rows, "matvecT dimension mismatch");
        assert_eq!(y.len(), self.cols, "matvecT output mismatch");
        for (&xr, row) in x.iter().zip(self.data.chunks_exact(self.cols)) {
            for (dst, a) in y.iter_mut().zip(row.iter()) {
                *dst += a * xr;
            }
        }
    }

    /// `y += self^T * x` over a batch of `width` interleaved column vectors
    /// (the transposed GEMM of batched backpropagation).
    ///
    /// `x` holds a `rows x width` matrix and `y` a `cols x width` matrix,
    /// both lane-interleaved like [`Matrix::matmul_add_into`]. The kernel is
    /// blocked over [`GEMM_LANES`] lanes: for every matrix row `r` it
    /// performs a rank-1 style update `y[c][..] += self[r][c] * x[r][..]`
    /// over fixed-size lane arrays, so the lane-inner loop is a plain
    /// vector FMA with no reduction, and `y` (small, `cols x width`) stays
    /// cache-resident while each weight row streams past once per batch.
    ///
    /// Rows fold in index order (four rows' updates fused per pass, still
    /// applied in ascending row order per element, seeded with the current
    /// `y` value); `width == 1` delegates to exactly
    /// [`Matrix::matvec_transpose_add`], so a single-lane batched backward
    /// pass is bitwise identical to the serial one.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows * width` or `y.len() != cols * width`.
    pub fn matmul_transpose_add_into(&self, x: &[f32], width: usize, y: &mut [f32]) {
        assert_eq!(x.len(), self.rows * width, "matmulT input mismatch");
        assert_eq!(y.len(), self.cols * width, "matmulT output mismatch");
        if width == 0 {
            return;
        }
        if width == 1 {
            return self.matvec_transpose_add(x, y);
        }
        let mut b0 = 0;
        while b0 + GEMM_LANES <= width {
            self.transpose_lane_block::<GEMM_LANES>(x, width, b0, y);
            b0 += GEMM_LANES;
        }
        if b0 + GEMM_LANES / 2 <= width {
            self.transpose_lane_block::<{ GEMM_LANES / 2 }>(x, width, b0, y);
            b0 += GEMM_LANES / 2;
        }
        for b in b0..width {
            for (xr, row) in x
                .chunks_exact(width)
                .zip(self.data.chunks_exact(self.cols.max(1)))
            {
                let xv = xr[b];
                for (yc, &w) in y.chunks_exact_mut(width).zip(row.iter()) {
                    yc[b] += w * xv;
                }
            }
        }
    }

    /// One `L`-lane block of the transposed GEMM:
    /// `y[c][b0..b0+L] += self[r][c] * x[r][b0..b0+L]` for every `(r, c)`,
    /// rows outermost in blocks of four — each pass over `y` applies four
    /// rows' rank-1 updates (rows in ascending order per element), quartering
    /// the `y` load/store traffic. Fixed-size lane arrays keep the update in
    /// vector registers with no per-element bounds checks.
    #[inline(always)]
    fn transpose_lane_block<const L: usize>(
        &self,
        x: &[f32],
        width: usize,
        b0: usize,
        y: &mut [f32],
    ) {
        let cols = self.cols.max(1);
        let mut rows = self.data.chunks_exact(4 * cols);
        let mut xrows = x.chunks_exact(4 * width);
        for (quad, xquad) in rows.by_ref().zip(xrows.by_ref()) {
            let r0 = &quad[..cols];
            let r1 = &quad[cols..2 * cols];
            let r2 = &quad[2 * cols..3 * cols];
            let r3 = &quad[3 * cols..4 * cols];
            let x0: &[f32; L] = xquad[b0..b0 + L].try_into().expect("lane block");
            let x1: &[f32; L] = xquad[width + b0..width + b0 + L]
                .try_into()
                .expect("lane block");
            let x2: &[f32; L] = xquad[2 * width + b0..2 * width + b0 + L]
                .try_into()
                .expect("lane block");
            let x3: &[f32; L] = xquad[3 * width + b0..3 * width + b0 + L]
                .try_into()
                .expect("lane block");
            for (c, yc) in y.chunks_exact_mut(width).enumerate() {
                let ys: &mut [f32] = &mut yc[b0..b0 + L];
                let (w0, w1, w2, w3) = (r0[c], r1[c], r2[c], r3[c]);
                for l in 0..L {
                    let mut acc = ys[l];
                    acc += w0 * x0[l];
                    acc += w1 * x1[l];
                    acc += w2 * x2[l];
                    acc += w3 * x3[l];
                    ys[l] = acc;
                }
            }
        }
        for (xr, row) in xrows
            .remainder()
            .chunks_exact(width)
            .zip(rows.remainder().chunks_exact(cols))
        {
            let xv: &[f32; L] = xr[b0..b0 + L].try_into().expect("lane block in bounds");
            for (yc, &w) in y.chunks_exact_mut(width).zip(row.iter()) {
                let ys: &mut [f32] = &mut yc[b0..b0 + L];
                for l in 0..L {
                    ys[l] += w * xv[l];
                }
            }
        }
    }

    /// Accumulate the outer product `self += a * b^T` (gradient accumulation).
    pub fn add_outer(&mut self, a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), self.rows, "outer product row mismatch");
        assert_eq!(b.len(), self.cols, "outer product col mismatch");
        for (&ar, row) in a.iter().zip(self.data.chunks_exact_mut(self.cols)) {
            for (dst, bv) in row.iter_mut().zip(b.iter()) {
                *dst += ar * bv;
            }
        }
    }

    /// Accumulate a batch of outer products:
    /// `self += Σ_lane a_lane * b_lane^T` (batched gradient accumulation).
    ///
    /// `a` holds a `rows x width` matrix, lane-interleaved like every other
    /// batched operand; `b_lanes` holds the `width` right-hand vectors
    /// **lane-major** — lane `b`'s vector contiguous at
    /// `b_lanes[b*cols..(b+1)*cols]`. The training forward pass caches its
    /// backward operands in this layout (a cheap transposing copy per step),
    /// because it is what lets the hot loop here be a plain vectorisable
    /// AXPY (`row += a[r][lane] * b_lane`) with no horizontal reduction,
    /// while each (large) gradient row is loaded once per *batch* instead of
    /// once per stream — the cache-traffic win batched gradient
    /// accumulation exists for.
    ///
    /// Per gradient element the reduction is the unified left fold — seed
    /// the current gradient value, add lane contributions in ascending lane
    /// order — deterministic for a given width and invariant to the tile
    /// shape and row split; at `width == 1` the two layouts coincide and the
    /// kernel delegates to exactly [`Matrix::add_outer`], so single-lane
    /// batched accumulation is bitwise identical to the serial path.
    ///
    /// Gradient matrices above the [`BlockPlan`] parallel threshold split
    /// their rows across rayon workers; each gradient element is written by
    /// exactly one worker with the same fold, so the result is bitwise
    /// independent of the thread count.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != rows * width` or `b_lanes.len() != cols * width`.
    pub fn add_outer_batch(&mut self, a: &[f32], b_lanes: &[f32], width: usize) {
        assert_eq!(a.len(), self.rows * width, "outer batch row mismatch");
        assert_eq!(b_lanes.len(), self.cols * width, "outer batch col mismatch");
        if width == 0 {
            return;
        }
        if width == 1 {
            return self.add_outer(a, b_lanes);
        }
        let cols = self.cols.max(1);
        let plan = BlockPlan::for_kernel(self.rows, cols, width);
        let threads = if plan.parallel {
            rayon::current_num_threads()
        } else {
            1
        };
        if plan.parallel && threads > 1 && self.rows > 4 {
            // Quad-aligned row chunks keep every chunk on the fast 4-row
            // tile path; disjoint rows make the split bitwise-invisible.
            let quads = self.rows.div_ceil(4);
            let chunk_rows = quads.div_ceil(threads) * 4;
            self.data
                .par_chunks_mut(chunk_rows * cols)
                .enumerate()
                .for_each(|(ci, rows_chunk)| {
                    let a0 = ci * chunk_rows * width;
                    let nrows = rows_chunk.len() / cols;
                    outer_rows(rows_chunk, &a[a0..a0 + nrows * width], b_lanes, width, cols);
                });
        } else {
            outer_rows(&mut self.data, a, b_lanes, width, cols);
        }
    }

    /// Accumulate a whole block of batched outer products:
    /// `self += Σ_span Σ_lane a_span,lane * b_span,lane^T`, where each span
    /// is one timestep's `(a, b_lanes)` operand pair (layouts as in
    /// [`Matrix::add_outer_batch`]).
    ///
    /// This is the k-blocked gradient accumulation of truncated BPTT: a
    /// chunk's backward pass used to stream every (large) gradient matrix
    /// through the cache once **per timestep**; handing a block of timesteps
    /// to this kernel loads and stores each gradient element once per
    /// *block*, cutting the dominant backward memory traffic by the block
    /// length. Per gradient element the reduction is the unified left fold
    /// over spans in the given order, lanes ascending within each span —
    /// exactly the sequence of per-timestep [`Matrix::add_outer_batch`]
    /// calls it replaces, so deferring the accumulation changes no bits
    /// (property-tested). Callers pass spans in timestep-descending order to
    /// match the serial backward pass.
    ///
    /// Rows split across rayon workers above the parallel threshold, bitwise
    /// identical at any thread count (disjoint rows).
    ///
    /// # Panics
    ///
    /// Panics if any span's operand lengths disagree with the gradient shape
    /// and `width`.
    pub fn add_outer_batch_spans(&mut self, spans: &[(&[f32], &[f32])], width: usize) {
        for (a, b_lanes) in spans {
            assert_eq!(a.len(), self.rows * width, "outer span row mismatch");
            assert_eq!(b_lanes.len(), self.cols * width, "outer span col mismatch");
        }
        if width == 0 || spans.is_empty() {
            return;
        }
        let cols = self.cols.max(1);
        let plan = BlockPlan::for_kernel(self.rows, cols, width * spans.len());
        let threads = if plan.parallel {
            rayon::current_num_threads()
        } else {
            1
        };
        if plan.parallel && threads > 1 && self.rows > 4 {
            let quads = self.rows.div_ceil(4);
            let chunk_rows = quads.div_ceil(threads) * 4;
            self.data
                .par_chunks_mut(chunk_rows * cols)
                .enumerate()
                .for_each(|(ci, rows_chunk)| {
                    outer_rows_spans(rows_chunk, ci * chunk_rows, spans, width, cols);
                });
        } else {
            outer_rows_spans(&mut self.data, 0, spans, width, cols);
        }
    }

    /// `self += alpha * other` (AXPY over all entries).
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        for (dst, src) in self.data.iter_mut().zip(other.data.iter()) {
            *dst += alpha * src;
        }
    }

    /// Set every entry to zero.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Sum of squares of all entries (for gradient-norm clipping).
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Scale all entries by `s`.
    pub fn scale(&mut self, s: f32) {
        self.data.iter_mut().for_each(|v| *v *= s);
    }

    /// Number of parameters stored.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Cache-blocking plan for the packed kernels, derived deterministically
/// from the operand dimensions alone (never from the machine's thread count
/// or load), so the same operand always uses the same blocks.
///
/// The plan only decides *where work is cut*, never *what is summed in which
/// order*: every kernel reduces each output element as a left fold over the
/// same canonical term sequence, so any `kc`, lane width or row split yields
/// bitwise-identical results (see the module docs). That frees the plan to
/// chase the cache. Its two halves are consumed at different times: `kc` is
/// the **pack-time layout unit** — [`PackedMatrix`] bakes it in (at the
/// canonical [`GEMM_LANES`] width) so the kernels' traversal stays exactly
/// sequential, sized so a k-block's slice of the batched input stays
/// L1-resident even at the widest 32-lane batches (`256 * 32 * 4 B = 32 KiB`
/// against the 48 KiB L1) — while `lane_block` and `parallel` are read at
/// kernel invocation for the register tiling and the row-parallel decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockPlan {
    /// Columns per k-block of the packed layout (consumed at pack time):
    /// the fold for each output element is cut into runs of at most `kc`
    /// terms, with the running value spilled to `y` between runs.
    pub kc: usize,
    /// Batch lanes per register tile of the GEMM kernels.
    pub lane_block: usize,
    /// Whether the operand is large enough for deterministic row-parallelism
    /// (output rows split across workers; disjoint rows keep the result
    /// bitwise identical to the serial schedule at any thread count).
    pub parallel: bool,
}

/// The k-block budget in f32 elements: a k-block's slice of the batched
/// input (`kc * width` values) is re-streamed once per row panel, so the
/// pack-time `kc` (computed at the canonical [`GEMM_LANES`] width) comes out
/// at 256 for wide operands — small enough that even a 32-lane batch's
/// k-slice (32 KiB) still fits the 48 KiB L1 alongside the 8 KiB weight
/// panel.
const KBLOCK_BUDGET_F32: usize = 2048;

/// Lower bound on `kc`: below this the per-block bookkeeping (spilling the
/// running fold to `y` and reloading it) outweighs the locality win.
const KBLOCK_MIN: usize = 128;

/// Minimum `rows * cols * width` products before a kernel fans its output
/// rows out across rayon workers; smaller operands run serially because the
/// fork/join costs more than it saves.
pub const PAR_MIN_WORK: usize = 1 << 21;

impl BlockPlan {
    /// The plan for a `rows x cols` operand consumed at `width` batch lanes.
    ///
    /// `kc` shrinks as the width grows (`kc * width` is held near the L1
    /// budget; packing evaluates this at the canonical [`GEMM_LANES`]
    /// width) and `lane_block` is the widest register tile the batch fills
    /// — together the heuristic that replaces the old fixed eight-lane
    /// constant and repairs the wide-batch throughput curve.
    pub fn for_kernel(rows: usize, cols: usize, width: usize) -> BlockPlan {
        let width = width.max(1);
        let kc = (KBLOCK_BUDGET_F32 / width).max(KBLOCK_MIN).min(cols.max(1));
        let lane_block = if width >= GEMM_LANES {
            GEMM_LANES
        } else if width >= 4 {
            4
        } else if width >= 2 {
            2
        } else {
            1
        };
        let parallel = rows.saturating_mul(cols).saturating_mul(width) >= PAR_MIN_WORK;
        BlockPlan {
            kc,
            lane_block,
            parallel,
        }
    }
}

/// A weight matrix repacked once into a cache-friendly k-blocked row-panel
/// layout for the hot kernels (the GotoBLAS/BLIS packing idea applied to
/// this crate's hand-rolled core).
///
/// Rows are grouped into panels of [`ROW_PANEL`]; columns into k-blocks of
/// `kc` (chosen from the dims by [`BlockPlan`] at pack time). Storage is
/// k-block-major, then panel-major, then k-major with the panel's
/// [`ROW_PANEL`] rows contiguous per `k` — short final panels are
/// zero-padded, and only the final k-block may be short. Three properties
/// follow:
///
/// * the kernels' traversal order (k-blocks outermost, panels inside,
///   `k` innermost) reads `data` **exactly sequentially**, so the whole
///   matrix streams through the prefetcher once per product with none of
///   the strided hops a 2048-wide row-major matrix suffers;
/// * within a k-block, the k-slice of the batched input `x` it re-streams
///   per panel is at most `kc * width` values — L1-resident at the widths
///   the plan budgets for — instead of the whole `cols * width` operand;
/// * the eight rows of a panel sit contiguously per `k`, so the serial
///   matvec becomes one 8-wide vector FMA per `k` instead of eight scalar
///   dependency chains.
///
/// Packing is bit-exact (`pack` then [`PackedMatrix::unpack`] reproduces the
/// source matrix bitwise) and the packed kernels fold in the same unified
/// per-element order as their [`Matrix`] counterparts — the left fold makes
/// the k-block cuts invisible — so swapping a packed matrix into a hot path
/// never changes a single output bit, only the speed. Weight matrices are
/// packed once per model build / checkpoint load (sampling) or once per
/// BPTT chunk (training, where weights move).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PackedMatrix {
    rows: usize,
    cols: usize,
    /// Baked k-block length (layout unit), derived from the dims alone.
    kc: usize,
    data: Vec<f32>,
}

/// Rows per packed panel: eight f32 fill one 256-bit vector register, so the
/// packed matvec runs one vector FMA per `k` per panel.
pub const ROW_PANEL: usize = 8;

impl PackedMatrix {
    /// Pack `m` into the k-blocked row-panel layout (see the type docs).
    pub fn pack(m: &Matrix) -> PackedMatrix {
        let mut packed = PackedMatrix::default();
        packed.repack(m);
        packed
    }

    /// Pack the transpose of `m` — the layout the backward pass feeds to the
    /// forward GEMM kernel to compute `y += m^T x` (so one kernel serves
    /// both directions). Equivalent to `PackedMatrix::pack(&transpose(m))`
    /// without materializing the transpose.
    pub fn pack_transpose(m: &Matrix) -> PackedMatrix {
        let mut packed = PackedMatrix::default();
        packed.repack_transpose(m);
        packed
    }

    /// Reset shape metadata and zero-fill the padded storage for a
    /// `rows x cols` operand; returns the panel count.
    fn reshape(&mut self, rows: usize, cols: usize) -> usize {
        self.rows = rows;
        self.cols = cols;
        // The layout's k-block length is derived from the dims alone (the
        // canonical GEMM width): deterministic, and never affects bits —
        // only where the sequential stream is cut.
        self.kc = BlockPlan::for_kernel(rows, cols, GEMM_LANES).kc;
        let panels = rows.div_ceil(ROW_PANEL).max(1);
        self.data.clear();
        self.data.resize(panels * cols * ROW_PANEL, 0.0);
        panels
    }

    /// Re-pack `m` in place, reusing the existing buffer (the training path
    /// re-packs every chunk because the weights moved; steady state performs
    /// no allocation).
    pub fn repack(&mut self, m: &Matrix) {
        let panels = self.reshape(m.rows(), m.cols());
        if self.cols == 0 {
            return;
        }
        let (kc, cols) = (self.kc, self.cols);
        for (r, row) in m.data().chunks_exact(cols).enumerate() {
            let (p, i) = (r / ROW_PANEL, r % ROW_PANEL);
            let mut kstart = 0;
            let mut boff = 0;
            while kstart < cols {
                let blen = kc.min(cols - kstart);
                let base = boff + p * blen * ROW_PANEL + i;
                for (k_in, &w) in row[kstart..kstart + blen].iter().enumerate() {
                    self.data[base + k_in * ROW_PANEL] = w;
                }
                kstart += blen;
                boff += blen * ROW_PANEL * panels;
            }
        }
    }

    /// Re-pack the transpose of `m` in place (see
    /// [`PackedMatrix::pack_transpose`]).
    pub fn repack_transpose(&mut self, m: &Matrix) {
        // Packed rows are the source's columns: packed (c, k) = m[k][c].
        let panels = self.reshape(m.cols(), m.rows());
        if self.cols == 0 || self.rows == 0 {
            return;
        }
        let (kc, cols) = (self.kc, self.cols);
        for (k, row) in m.data().chunks_exact(m.cols()).enumerate() {
            let b = k / kc;
            let blen = kc.min(cols - b * kc);
            let kbase = b * kc * ROW_PANEL * panels + (k - b * kc) * ROW_PANEL;
            for (c, &w) in row.iter().enumerate() {
                let (p, i) = (c / ROW_PANEL, c % ROW_PANEL);
                self.data[kbase + p * blen * ROW_PANEL + i] = w;
            }
        }
    }

    /// Number of rows of the packed operand.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the packed operand.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reconstruct the row-major matrix this pack was built from. Packing is
    /// a bit-exact permutation, so the round trip reproduces every element
    /// bitwise (property-tested).
    pub fn unpack(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        if self.rows == 0 || self.cols == 0 {
            return out;
        }
        let panels = self.rows.div_ceil(ROW_PANEL).max(1);
        let (kc, cols) = (self.kc, self.cols);
        let mut kstart = 0;
        let mut boff = 0;
        while kstart < cols {
            let blen = kc.min(cols - kstart);
            for p in 0..panels {
                let base = boff + p * blen * ROW_PANEL;
                for k_in in 0..blen {
                    for i in 0..ROW_PANEL {
                        let r = p * ROW_PANEL + i;
                        if r < self.rows {
                            out.set(r, kstart + k_in, self.data[base + k_in * ROW_PANEL + i]);
                        }
                    }
                }
            }
            kstart += blen;
            boff += blen * ROW_PANEL * panels;
        }
        out
    }

    /// `y = A x`: the packed matvec (fold seeded with zero). Bitwise
    /// identical to [`Matrix::matvec_into`] on the source matrix.
    pub fn matvec_into(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec output mismatch");
        self.matvec_panels::<false>(x, y);
    }

    /// `y += A x`: the packed matvec (fold seeded with `y`). Bitwise
    /// identical to [`Matrix::matvec_add`] on the source matrix; one 8-wide
    /// vector FMA per `k` per panel, streaming the packed weights exactly
    /// once in layout order.
    pub fn matvec_add(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec output mismatch");
        self.matvec_panels::<true>(x, y);
    }

    fn matvec_panels<const ADD: bool>(&self, x: &[f32], y: &mut [f32]) {
        if self.rows == 0 || self.cols == 0 {
            if !ADD {
                y.iter_mut().for_each(|v| *v = 0.0);
            }
            return;
        }
        let panels = self.rows.div_ceil(ROW_PANEL).max(1);
        let (kc, cols) = (self.kc, self.cols);
        // A contiguous panel range's worth of the matvec: walks the packed
        // data in layout order (k-blocks outer, the range's panels inner).
        // The running fold per row spills to `y` between k-blocks — the
        // left fold makes the cut invisible. On the overwrite path the
        // first block seeds zero, later blocks the spilled partial.
        let run = |p0: usize, yslice: &mut [f32]| {
            let mut kstart = 0;
            let mut boff = 0;
            while kstart < cols {
                let blen = kc.min(cols - kstart);
                let xk = &x[kstart..kstart + blen];
                for (pi, yp) in yslice.chunks_mut(ROW_PANEL).enumerate() {
                    let base = boff + (p0 + pi) * blen * ROW_PANEL;
                    let panel = &self.data[base..base + blen * ROW_PANEL];
                    let mut acc = [0.0f32; ROW_PANEL];
                    if ADD || kstart > 0 {
                        acc[..yp.len()].copy_from_slice(yp);
                    }
                    for (w8, &xv) in panel.chunks_exact(ROW_PANEL).zip(xk.iter()) {
                        for i in 0..ROW_PANEL {
                            acc[i] += w8[i] * xv;
                        }
                    }
                    yp.copy_from_slice(&acc[..yp.len()]);
                }
                kstart += blen;
                boff += blen * ROW_PANEL * panels;
            }
        };
        let plan = BlockPlan::for_kernel(self.rows, cols, 1);
        let threads = if plan.parallel {
            rayon::current_num_threads()
        } else {
            1
        };
        if plan.parallel && threads > 1 && self.rows > ROW_PANEL {
            let chunk_panels = panels.div_ceil(threads);
            y.par_chunks_mut(chunk_panels * ROW_PANEL)
                .enumerate()
                .for_each(|(ci, ychunk)| run(ci * chunk_panels, ychunk));
        } else {
            run(0, y);
        }
    }

    /// `y += A x` over `width` interleaved batch lanes: the packed,
    /// k-blocked GEMM (layout as in [`Matrix::matmul_add_into`]).
    ///
    /// The kernel walks the baked k-blocks outermost — reading the packed
    /// weights exactly sequentially — so the k-slice of `x` it re-streams
    /// per row panel stays L1-resident at any batch width; inside a k-block
    /// each panel is an 8-row x `lane_block`-lane register tile
    /// ([`BlockPlan`] picks the lane width). Above the parallel threshold,
    /// whole row panels are split across rayon workers. Every variation —
    /// k-block cut, lane width, row split, thread count — preserves the
    /// unified per-element left fold, so the result is bitwise identical to
    /// [`Matrix::matmul_add_into`] on the source matrix
    /// (kernel-parity-tested).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols * width` or `y.len() != rows * width`.
    pub fn matmul_add_into(&self, x: &[f32], width: usize, y: &mut [f32]) {
        assert_eq!(x.len(), self.cols * width, "matmul input mismatch");
        assert_eq!(y.len(), self.rows * width, "matmul output mismatch");
        if width == 0 || self.rows == 0 || self.cols == 0 {
            return;
        }
        if width == 1 {
            return self.matvec_add(x, y);
        }
        let panels = self.rows.div_ceil(ROW_PANEL).max(1);
        let plan = BlockPlan::for_kernel(self.rows, self.cols, width);
        let threads = if plan.parallel {
            rayon::current_num_threads()
        } else {
            1
        };
        if plan.parallel && threads > 1 && self.rows > ROW_PANEL {
            let chunk_panels = panels.div_ceil(threads);
            y.par_chunks_mut(chunk_panels * ROW_PANEL * width)
                .enumerate()
                .for_each(|(ci, ychunk)| {
                    gemm_packed_blocks(
                        &self.data,
                        panels,
                        ci * chunk_panels,
                        self.kc,
                        self.cols,
                        x,
                        width,
                        ychunk,
                        plan,
                    );
                });
        } else {
            gemm_packed_blocks(&self.data, panels, 0, self.kc, self.cols, x, width, y, plan);
        }
    }
}

/// The k-blocked packed GEMM over a contiguous range of row panels
/// (starting at `p0` of `total_panels`): for every baked k-block, every
/// panel folds its 8 x `lane_block` register tile seeded from `y`, adds the
/// block's terms in ascending `k`, and spills back — the unified left fold,
/// cut at the layout's `kc`. The serial case (`p0 == 0`, all panels) reads
/// the packed data exactly sequentially.
#[allow(clippy::too_many_arguments)]
fn gemm_packed_blocks(
    data: &[f32],
    total_panels: usize,
    p0: usize,
    kc: usize,
    cols: usize,
    x: &[f32],
    width: usize,
    y: &mut [f32],
    plan: BlockPlan,
) {
    let mut kstart = 0;
    let mut boff = 0;
    while kstart < cols {
        let blen = kc.min(cols - kstart);
        let xk = &x[kstart * width..(kstart + blen) * width];
        for (pi, yp) in y.chunks_mut(ROW_PANEL * width).enumerate() {
            let base = boff + (p0 + pi) * blen * ROW_PANEL;
            let panel = &data[base..base + blen * ROW_PANEL];
            let mut b0 = 0;
            if plan.lane_block >= GEMM_LANES {
                while b0 + GEMM_LANES <= width {
                    gemm_packed_tile::<GEMM_LANES>(panel, xk, width, b0, yp);
                    b0 += GEMM_LANES;
                }
            }
            if plan.lane_block >= 4 {
                while b0 + 4 <= width {
                    gemm_packed_tile::<4>(panel, xk, width, b0, yp);
                    b0 += 4;
                }
            }
            while b0 + 2 <= width {
                gemm_packed_tile::<2>(panel, xk, width, b0, yp);
                b0 += 2;
            }
            while b0 < width {
                gemm_packed_tile::<1>(panel, xk, width, b0, yp);
                b0 += 1;
            }
        }
        kstart += blen;
        boff += blen * ROW_PANEL * total_panels;
    }
}

/// One 8-row x `L`-lane register tile of the packed GEMM: seed the tile from
/// `y`, fold the k-block's terms in ascending `k` (one broadcast per packed
/// row element, one vector FMA per row), store once. Rows past the operand's
/// edge (zero-padded panels) compute harmlessly into unused accumulators.
#[inline(always)]
fn gemm_packed_tile<const L: usize>(
    panel: &[f32],
    xk: &[f32],
    width: usize,
    b0: usize,
    yp: &mut [f32],
) {
    let rp = yp.len() / width;
    let mut acc = [[0.0f32; L]; ROW_PANEL];
    for (r, accr) in acc.iter_mut().take(rp).enumerate() {
        accr.copy_from_slice(&yp[r * width + b0..r * width + b0 + L]);
    }
    for (w8, xrow) in panel.chunks_exact(ROW_PANEL).zip(xk.chunks_exact(width)) {
        let xs: &[f32; L] = xrow[b0..b0 + L].try_into().expect("lane tile in bounds");
        for (accr, &w) in acc.iter_mut().zip(w8.iter()) {
            for l in 0..L {
                accr[l] += w * xs[l];
            }
        }
    }
    for (r, accr) in acc.iter().take(rp).enumerate() {
        yp[r * width + b0..r * width + b0 + L].copy_from_slice(accr);
    }
}

/// Fast `e^x` for `f32`: Cody-Waite range reduction plus a degree-6
/// polynomial (the classic Cephes `expf` scheme), accurate to ~1 ulp over
/// the full range and an order of magnitude faster than the libm call. The
/// LSTM cell update performs five transcendental evaluations per hidden unit
/// per character, so this is squarely on the sampling hot path.
#[inline(always)]
pub fn fast_exp(x: f32) -> f32 {
    const EXP_HI: f32 = 88.376_26;
    const EXP_LO: f32 = -87.336_55;
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    const C1: f32 = 0.693_359_4;
    const C2: f32 = -2.121_944_4e-4;
    let x = x.clamp(EXP_LO, EXP_HI);
    // Round x / ln2 to the nearest integer without a libm call: adding and
    // subtracting 1.5 * 2^23 forces rounding at the unit place (|fx| < 2^22
    // holds for the clamped range).
    let fx = x * LOG2E;
    let n = (fx + 12_582_912.0f32) - 12_582_912.0f32;
    let g = x - n * C1 - n * C2;
    let z = g * g;
    let mut y = 1.987_569_2e-4f32;
    y = y * g + 1.398_199_9e-3;
    y = y * g + 8.333_452e-3;
    y = y * g + 4.166_579_6e-2;
    y = y * g + 1.666_666_6e-1;
    y = y * g + 5e-1;
    y = y * z + g + 1.0;
    // Scale by 2^n through the exponent bits; n stays in [-127, 128] for the
    // clamped input range, so the bias arithmetic cannot overflow.
    let scale = f32::from_bits((((n as i32) + 127) << 23) as u32);
    y * scale
}

/// Fast hyperbolic tangent built on [`fast_exp`]; relative error is below
/// `1e-6` across the range and the saturated tails are exact.
#[inline(always)]
pub fn fast_tanh(x: f32) -> f32 {
    let e2x = fast_exp(2.0 * x);
    (e2x - 1.0) / (e2x + 1.0)
}

/// Element-wise sigmoid (built on [`fast_exp`]; `sigmoid(0) == 0.5` exactly).
#[inline(always)]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + fast_exp(-x))
}

/// Fused LSTM cell update, in place (the sampling fast path).
///
/// `z` holds the four stacked pre-activation gate blocks (input, forget,
/// cell candidate, output — each `c.len()` wide, the layout produced by
/// `W_x x + W_h h + b`). The cell state `c` and hidden state `h` are updated
/// in place; gate activations are not retained, so this variant cannot feed
/// backpropagation — use [`lstm_cell_cached`] when training.
///
/// # Panics
///
/// Panics if `z.len() != 4 * c.len()` or `h.len() != c.len()`.
pub fn lstm_cell_inplace(z: &[f32], c: &mut [f32], h: &mut [f32]) {
    let hs = c.len();
    assert_eq!(z.len(), 4 * hs, "gate block mismatch");
    assert_eq!(h.len(), hs, "hidden/cell size mismatch");
    for j in 0..hs {
        let gi = sigmoid(z[j]);
        let gf = sigmoid(z[hs + j]);
        let gg = fast_tanh(z[2 * hs + j]);
        let go = sigmoid(z[3 * hs + j]);
        let c_new = gf * c[j] + gi * gg;
        c[j] = c_new;
        h[j] = go * fast_tanh(c_new);
    }
}

/// Fused LSTM cell update over a whole interleaved batch, in place.
///
/// All buffers are lane-interleaved: gate row `r` of lane `b` lives at
/// `z[r * width + b]`, and cell/hidden element `j` of lane `b` at
/// `c[j * width + b]` / `h[j * width + b]`. The lane-inner loop is pure
/// branchless arithmetic ([`fast_exp`] under the hood), so the compiler can
/// vectorise across lanes; per element the operations and their order are
/// exactly those of [`lstm_cell_inplace`], so resident batched updates stay
/// bitwise identical to serial ones.
///
/// # Panics
///
/// Panics if buffer lengths disagree with `width` and `c.len()`.
pub fn lstm_cell_fused_batch(z: &[f32], width: usize, c: &mut [f32], h: &mut [f32]) {
    assert_eq!(
        c.len() % width.max(1),
        0,
        "cell buffer must be a lane multiple"
    );
    let hs = c.len() / width.max(1);
    assert_eq!(z.len(), 4 * hs * width, "gate block mismatch");
    assert_eq!(h.len(), hs * width, "hidden/cell size mismatch");
    for j in 0..hs {
        let (zi, zf) = (
            &z[j * width..(j + 1) * width],
            &z[(hs + j) * width..(hs + j + 1) * width],
        );
        let zg = &z[(2 * hs + j) * width..(2 * hs + j + 1) * width];
        let zo = &z[(3 * hs + j) * width..(3 * hs + j + 1) * width];
        let cj = &mut c[j * width..(j + 1) * width];
        let hj = &mut h[j * width..(j + 1) * width];
        for b in 0..width {
            let gi = sigmoid(zi[b]);
            let gf = sigmoid(zf[b]);
            let gg = fast_tanh(zg[b]);
            let go = sigmoid(zo[b]);
            let c_new = gf * cj[b] + gi * gg;
            cj[b] = c_new;
            hj[b] = go * fast_tanh(c_new);
        }
    }
}

/// Fused LSTM cell update retaining gate activations for backpropagation.
///
/// Writes the input/forget/candidate/output gate activations, the new cell
/// state, `tanh(c)` and the new hidden state into the caller's buffers (all
/// `c_prev.len()` wide). Element-wise operations and their order match
/// [`lstm_cell_inplace`] exactly.
///
/// # Panics
///
/// Panics if any buffer length disagrees with `c_prev.len()`.
#[allow(clippy::too_many_arguments)]
pub fn lstm_cell_cached(
    z: &[f32],
    c_prev: &[f32],
    gi: &mut [f32],
    gf: &mut [f32],
    gg: &mut [f32],
    go: &mut [f32],
    c_new: &mut [f32],
    tanh_c: &mut [f32],
    h_new: &mut [f32],
) {
    let hs = c_prev.len();
    assert_eq!(z.len(), 4 * hs, "gate block mismatch");
    for buf in [
        &gi[..],
        &gf[..],
        &gg[..],
        &go[..],
        &c_new[..],
        &tanh_c[..],
        &h_new[..],
    ] {
        assert_eq!(buf.len(), hs, "cache buffer size mismatch");
    }
    for j in 0..hs {
        gi[j] = sigmoid(z[j]);
        gf[j] = sigmoid(z[hs + j]);
        gg[j] = fast_tanh(z[2 * hs + j]);
        go[j] = sigmoid(z[3 * hs + j]);
        c_new[j] = gf[j] * c_prev[j] + gi[j] * gg[j];
        tanh_c[j] = fast_tanh(c_new[j]);
        h_new[j] = go[j] * tanh_c[j];
    }
}

/// Fused LSTM cell update over a whole interleaved batch, retaining gate
/// activations for backpropagation (the minibatch-training forward path).
///
/// All buffers are lane-interleaved like [`lstm_cell_fused_batch`]: gate row
/// `r` of lane `b` lives at `z[r * width + b]`, and element `j` of lane `b`
/// of every per-unit buffer at `j * width + b`. Per element the operations
/// and their order are exactly those of [`lstm_cell_cached`], so a
/// single-lane batched training step stays bitwise identical to the serial
/// one; the lane-inner loop is branchless so wider batches vectorise.
///
/// # Panics
///
/// Panics if buffer lengths disagree with `width` and `c_prev.len()`.
#[allow(clippy::too_many_arguments)]
pub fn lstm_cell_cached_batch(
    z: &[f32],
    width: usize,
    c_prev: &[f32],
    gi: &mut [f32],
    gf: &mut [f32],
    gg: &mut [f32],
    go: &mut [f32],
    c_new: &mut [f32],
    tanh_c: &mut [f32],
    h_new: &mut [f32],
) {
    assert_eq!(
        c_prev.len() % width.max(1),
        0,
        "cell buffer must be a lane multiple"
    );
    let hs = c_prev.len() / width.max(1);
    assert_eq!(z.len(), 4 * hs * width, "gate block mismatch");
    for buf in [
        &gi[..],
        &gf[..],
        &gg[..],
        &go[..],
        &c_new[..],
        &tanh_c[..],
        &h_new[..],
    ] {
        assert_eq!(buf.len(), hs * width, "cache buffer size mismatch");
    }
    // In the interleaved layout, gate row `g*hs + j` of lane `b` sits at the
    // flat index `g*hs*width + (j*width + b)` — so the whole update is one
    // elementwise pass over `hw` elements with four fixed gate offsets, a
    // long-trip-count loop the compiler vectorises directly.
    let hw = hs * width;
    let (zi, zrest) = z.split_at(hw);
    let (zf, zrest) = zrest.split_at(hw);
    let (zg, zo) = zrest.split_at(hw);
    for e in 0..hw {
        gi[e] = sigmoid(zi[e]);
        gf[e] = sigmoid(zf[e]);
        gg[e] = fast_tanh(zg[e]);
        go[e] = sigmoid(zo[e]);
        c_new[e] = gf[e] * c_prev[e] + gi[e] * gg[e];
        tanh_c[e] = fast_tanh(c_new[e]);
        h_new[e] = go[e] * tanh_c[e];
    }
}

/// Number of batch lanes processed together by [`Matrix::matmul_add_into`].
/// Eight independent f32 accumulators fill a 256-bit vector register and
/// break the single-accumulator dependency chain that bounds `matvec`.
pub const GEMM_LANES: usize = 8;

/// The batch width at which stepping `lanes` live lanes is cheapest. The
/// GEMM kernels cut a width into `GEMM_LANES`, 4, 2 and 1-lane tiles and
/// every tile is a full pass over the weight panel, so cost follows the
/// number of tiles, not the width: seven lanes (4+2+1) cost twice what eight
/// do. One lane is the matvec path and two are one tile; anything wider
/// rounds up to whole `GEMM_LANES` tiles, the extra columns being padding.
pub fn tile_width(lanes: usize) -> usize {
    if lanes <= 2 {
        lanes
    } else {
        lanes.next_multiple_of(GEMM_LANES)
    }
}

/// Number of matrix rows processed per pass by [`Matrix::matvec_into`] /
/// [`Matrix::matvec_add`]: four independent accumulators overlap their FMA
/// dependency chains and reuse each load of `x` four times.
pub const MATVEC_ROW_BLOCK: usize = 4;

/// Column-tile width of [`Matrix::add_outer_batch`]: sixteen f32 (two
/// 256-bit registers) accumulated across every lane before one store.
pub const OUTER_TILE: usize = 16;

/// A 4-row x `T`-column register tile of the batched outer product: four
/// gradient rows' `c0..c0+T` columns gain every lane's `a * b` contribution
/// (lanes ascending per element), so each `b` vector load feeds four FMA
/// rows and the gradient elements are written back once.
#[inline(always)]
fn outer_row_tile<const T: usize>(
    aq: &[f32],
    b_lanes: &[f32],
    width: usize,
    cols: usize,
    c0: usize,
    quad: &mut [f32],
) {
    let mut acc = [[0.0f32; T]; 4];
    for (i, acc_row) in acc.iter_mut().enumerate() {
        acc_row.copy_from_slice(&quad[i * cols + c0..i * cols + c0 + T]);
    }
    for lane in 0..width {
        let a0 = aq[lane];
        let a1 = aq[width + lane];
        let a2 = aq[2 * width + lane];
        let a3 = aq[3 * width + lane];
        let base = lane * cols + c0;
        let bl: &[f32; T] = b_lanes[base..base + T].try_into().expect("tile in bounds");
        for j in 0..T {
            acc[0][j] += a0 * bl[j];
            acc[1][j] += a1 * bl[j];
            acc[2][j] += a2 * bl[j];
            acc[3][j] += a3 * bl[j];
        }
    }
    for (i, acc_row) in acc.iter().enumerate() {
        quad[i * cols + c0..i * cols + c0 + T].copy_from_slice(acc_row);
    }
}

/// One column tile of the batched outer product: `out` (the gradient row's
/// `c0..c0+T` columns) gains every lane's `a * b` contribution, lanes in
/// ascending order, accumulated in a register tile and written back once.
#[inline(always)]
fn outer_col_tile<const T: usize>(
    ar: &[f32],
    b_lanes: &[f32],
    cols: usize,
    c0: usize,
    out: &mut [f32],
) {
    let mut acc = [0.0f32; T];
    acc.copy_from_slice(out);
    for (lane, &av) in ar.iter().enumerate() {
        let base = lane * cols + c0;
        let bl: &[f32; T] = b_lanes[base..base + T].try_into().expect("tile in bounds");
        for i in 0..T {
            acc[i] += av * bl[i];
        }
    }
    out.copy_from_slice(&acc);
}

/// Accumulate a block of spans' outer products into a contiguous run of
/// gradient rows: the row-range core of [`Matrix::add_outer_batch_spans`],
/// shared by its serial path and its per-thread row chunks. `row0` is the
/// first row's index in the full gradient (the spans' `a` operands are
/// indexed globally).
fn outer_rows_spans(
    rows_data: &mut [f32],
    row0: usize,
    spans: &[(&[f32], &[f32])],
    width: usize,
    cols: usize,
) {
    let nrows = rows_data.len() / cols;
    let mut r = 0;
    while r + 4 <= nrows {
        let quad = &mut rows_data[r * cols..(r + 4) * cols];
        let abase = (row0 + r) * width;
        let mut c0 = 0;
        while c0 + OUTER_TILE <= cols {
            outer_span_tile::<OUTER_TILE>(spans, abase, width, cols, c0, quad);
            c0 += OUTER_TILE;
        }
        if c0 + OUTER_TILE / 2 <= cols {
            outer_span_tile::<{ OUTER_TILE / 2 }>(spans, abase, width, cols, c0, quad);
            c0 += OUTER_TILE / 2;
        }
        for c in c0..cols {
            for (i, out) in quad.chunks_exact_mut(cols).enumerate() {
                let mut acc = out[c];
                for (a, b_lanes) in spans {
                    let ar = &a[abase + i * width..abase + (i + 1) * width];
                    for (lane, &av) in ar.iter().enumerate() {
                        acc += av * b_lanes[lane * cols + c];
                    }
                }
                out[c] = acc;
            }
        }
        r += 4;
    }
    while r < nrows {
        let row = &mut rows_data[r * cols..(r + 1) * cols];
        let abase = (row0 + r) * width;
        let mut c0 = 0;
        while c0 + OUTER_TILE <= cols {
            outer_span_col_tile::<OUTER_TILE>(spans, abase, width, cols, c0, row);
            c0 += OUTER_TILE;
        }
        if c0 + OUTER_TILE / 2 <= cols {
            outer_span_col_tile::<{ OUTER_TILE / 2 }>(spans, abase, width, cols, c0, row);
            c0 += OUTER_TILE / 2;
        }
        for c in c0..cols {
            let mut acc = row[c];
            for (a, b_lanes) in spans {
                let ar = &a[abase..abase + width];
                for (lane, &av) in ar.iter().enumerate() {
                    acc += av * b_lanes[lane * cols + c];
                }
            }
            row[c] = acc;
        }
        r += 1;
    }
}

/// A 4-row x `T`-column register tile of the span-blocked outer product:
/// the tile is seeded from the gradient, gains every span's every lane's
/// contribution (spans in given order, lanes ascending — the unified fold),
/// and is stored once — so the block's whole gradient traffic is one
/// load/store per element.
#[inline(always)]
fn outer_span_tile<const T: usize>(
    spans: &[(&[f32], &[f32])],
    abase: usize,
    width: usize,
    cols: usize,
    c0: usize,
    quad: &mut [f32],
) {
    let mut acc = [[0.0f32; T]; 4];
    for (i, accr) in acc.iter_mut().enumerate() {
        accr.copy_from_slice(&quad[i * cols + c0..i * cols + c0 + T]);
    }
    for (a, b_lanes) in spans {
        let aq = &a[abase..abase + 4 * width];
        for lane in 0..width {
            let a0 = aq[lane];
            let a1 = aq[width + lane];
            let a2 = aq[2 * width + lane];
            let a3 = aq[3 * width + lane];
            let base = lane * cols + c0;
            let bl: &[f32; T] = b_lanes[base..base + T].try_into().expect("tile in bounds");
            for j in 0..T {
                acc[0][j] += a0 * bl[j];
                acc[1][j] += a1 * bl[j];
                acc[2][j] += a2 * bl[j];
                acc[3][j] += a3 * bl[j];
            }
        }
    }
    for (i, accr) in acc.iter().enumerate() {
        quad[i * cols + c0..i * cols + c0 + T].copy_from_slice(accr);
    }
}

/// Single-row variant of [`outer_span_tile`] for quad remainders.
#[inline(always)]
fn outer_span_col_tile<const T: usize>(
    spans: &[(&[f32], &[f32])],
    abase: usize,
    width: usize,
    cols: usize,
    c0: usize,
    row: &mut [f32],
) {
    let mut acc = [0.0f32; T];
    acc.copy_from_slice(&row[c0..c0 + T]);
    for (a, b_lanes) in spans {
        let ar = &a[abase..abase + width];
        for (lane, &av) in ar.iter().enumerate() {
            let base = lane * cols + c0;
            let bl: &[f32; T] = b_lanes[base..base + T].try_into().expect("tile in bounds");
            for j in 0..T {
                acc[j] += av * bl[j];
            }
        }
    }
    row[c0..c0 + T].copy_from_slice(&acc);
}

/// Accumulate a batch of outer products into a contiguous block of gradient
/// rows: the row-range core of [`Matrix::add_outer_batch`], shared by its
/// serial path and its per-thread row chunks. `rows_data` holds whole rows
/// (`len` a multiple of `cols`), `a` the matching `rows x width` interleaved
/// left operand.
fn outer_rows(rows_data: &mut [f32], a: &[f32], b_lanes: &[f32], width: usize, cols: usize) {
    // Register tiles of 4 gradient rows x OUTER_TILE columns accumulate
    // every lane's contribution before one store, so each gradient element
    // is loaded and stored once per batch and each `b` vector load feeds
    // four rows.
    let mut a_quads = a.chunks_exact(4 * width);
    let mut row_quads = rows_data.chunks_exact_mut(4 * cols);
    for (aq, quad) in a_quads.by_ref().zip(row_quads.by_ref()) {
        let mut c0 = 0;
        while c0 + OUTER_TILE <= cols {
            outer_row_tile::<OUTER_TILE>(aq, b_lanes, width, cols, c0, quad);
            c0 += OUTER_TILE;
        }
        if c0 + OUTER_TILE / 2 <= cols {
            outer_row_tile::<{ OUTER_TILE / 2 }>(aq, b_lanes, width, cols, c0, quad);
            c0 += OUTER_TILE / 2;
        }
        for c in c0..cols {
            for (i, ar) in aq.chunks_exact(width).enumerate() {
                let mut acc = quad[i * cols + c];
                for (lane, &av) in ar.iter().enumerate() {
                    acc += av * b_lanes[lane * cols + c];
                }
                quad[i * cols + c] = acc;
            }
        }
    }
    for (ar, row) in a_quads
        .remainder()
        .chunks_exact(width)
        .zip(row_quads.into_remainder().chunks_exact_mut(cols))
    {
        let mut c0 = 0;
        while c0 + OUTER_TILE <= cols {
            outer_col_tile::<OUTER_TILE>(ar, b_lanes, cols, c0, &mut row[c0..c0 + OUTER_TILE]);
            c0 += OUTER_TILE;
        }
        if c0 + OUTER_TILE / 2 <= cols {
            outer_col_tile::<{ OUTER_TILE / 2 }>(
                ar,
                b_lanes,
                cols,
                c0,
                &mut row[c0..c0 + OUTER_TILE / 2],
            );
            c0 += OUTER_TILE / 2;
        }
        for c in c0..cols {
            let mut acc = row[c];
            for (lane, &av) in ar.iter().enumerate() {
                acc += av * b_lanes[lane * cols + c];
            }
            row[c] = acc;
        }
    }
}

/// Two-row variant of [`gemm_lane_block`]: one pass over `x` feeds two
/// independent accumulator sets (`y0` for `row0`, `y1` for `row1`), doubling
/// the in-flight FMA chains. Each output element folds over `k` in index
/// order seeded with its current `y` value, bitwise equal to the single-row
/// block.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_lane_block2<const L: usize>(
    row0: &[f32],
    row1: &[f32],
    x: &[f32],
    width: usize,
    b0: usize,
    y0: &mut [f32],
    y1: &mut [f32],
) {
    let mut acc0 = [0.0f32; L];
    let mut acc1 = [0.0f32; L];
    acc0.copy_from_slice(&y0[b0..b0 + L]);
    acc1.copy_from_slice(&y1[b0..b0 + L]);
    for ((&w0, &w1), xk) in row0.iter().zip(row1.iter()).zip(x.chunks_exact(width)) {
        let xs: &[f32; L] = xk[b0..b0 + L].try_into().expect("lane block in bounds");
        for l in 0..L {
            acc0[l] += w0 * xs[l];
            acc1[l] += w1 * xs[l];
        }
    }
    y0[b0..b0 + L].copy_from_slice(&acc0);
    y1[b0..b0 + L].copy_from_slice(&acc1);
}

/// One `L`-lane block of the batched GEMM: `yrow[b0..b0+L] += row · x`,
/// where lane `b` of `x` is the strided column `x[k * width + b0 + b]`.
/// Fixed-size array accumulators and per-`k` array views let the compiler
/// keep the lanes in vector registers with no per-element bounds checks;
/// each lane folds over `k` in index order seeded with its current `y` value
/// (bitwise equal to [`Matrix::matvec_add`]).
#[inline(always)]
fn gemm_lane_block<const L: usize>(
    row: &[f32],
    x: &[f32],
    width: usize,
    b0: usize,
    yrow: &mut [f32],
) {
    let mut acc = [0.0f32; L];
    acc.copy_from_slice(&yrow[b0..b0 + L]);
    for (&w, xk) in row.iter().zip(x.chunks_exact(width)) {
        let xs: &[f32; L] = xk[b0..b0 + L].try_into().expect("lane block in bounds");
        for l in 0..L {
            acc[l] += w * xs[l];
        }
    }
    yrow[b0..b0 + L].copy_from_slice(&acc);
}

/// Numerically-stable softmax over a slice, in place.
///
/// Degenerate inputs whose exponential mass underflows to zero (e.g. a
/// slice of `-inf` logits) fall back to the uniform distribution, so the
/// result is always a valid probability distribution.
pub fn softmax_in_place(x: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    let max = x.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in x.iter_mut() {
        *v = fast_exp(*v - max);
        sum += *v;
    }
    if sum > 0.0 && sum.is_finite() {
        for v in x.iter_mut() {
            *v /= sum;
        }
    } else {
        let uniform = 1.0 / x.len() as f32;
        for v in x.iter_mut() {
            *v = uniform;
        }
    }
}

/// AXPY over plain vectors: `y += alpha * x`.
pub fn vec_axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (dst, src) in y.iter_mut().zip(x.iter()) {
        *dst += alpha * src;
    }
}

/// Sum of squares of a vector.
pub fn vec_sq_norm(x: &[f32]) -> f32 {
    x.iter().map(|v| v * v).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn matvec_basic() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = m.matvec(&[1.0, 0.0, -1.0]);
        assert_eq!(y, vec![-2.0, -2.0]);
    }

    #[test]
    fn matvec_transpose_matches_manual() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut y = vec![0.0; 3];
        m.matvec_transpose_add(&[1.0, 2.0], &mut y);
        assert_eq!(y, vec![1.0 + 8.0, 2.0 + 10.0, 3.0 + 12.0]);
    }

    #[test]
    fn outer_product_accumulates() {
        let mut m = Matrix::zeros(2, 2);
        m.add_outer(&[1.0, 2.0], &[3.0, 4.0]);
        m.add_outer(&[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(m.data(), &[6.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::zeros(1, 3);
        let b = Matrix::from_vec(1, 3, vec![1.0, -2.0, 3.0]);
        a.axpy(2.0, &b);
        assert_eq!(a.data(), &[2.0, -4.0, 6.0]);
        a.scale(0.5);
        assert_eq!(a.data(), &[1.0, -2.0, 3.0]);
        assert_eq!(a.sq_norm(), 1.0 + 4.0 + 9.0);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let mut x = vec![1000.0, 1000.0, 1000.0];
        softmax_in_place(&mut x);
        let sum: f32 = x.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!((x[0] - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn sigmoid_range() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(10.0) > 0.999);
        assert!(sigmoid(-10.0) < 0.001);
    }

    #[test]
    fn uniform_init_is_bounded_and_deterministic() {
        let mut rng1 = StdRng::seed_from_u64(1);
        let mut rng2 = StdRng::seed_from_u64(1);
        let a = Matrix::uniform(4, 4, 0.1, &mut rng1);
        let b = Matrix::uniform(4, 4, 0.1, &mut rng2);
        assert_eq!(a, b);
        assert!(a.data().iter().all(|v| v.abs() <= 0.1));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn from_vec_checks_shape() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    /// Naive three-loop reference GEMM for the equivalence tests.
    fn matmul_reference(a: &Matrix, x: &[f32], width: usize) -> Vec<f32> {
        let mut y = vec![0.0f32; a.rows() * width];
        for r in 0..a.rows() {
            for b in 0..width {
                let mut acc = 0.0f64;
                for k in 0..a.cols() {
                    acc += f64::from(a.get(r, k)) * f64::from(x[k * width + b]);
                }
                y[r * width + b] = acc as f32;
            }
        }
        y
    }

    #[test]
    fn matvec_into_matches_matvec() {
        let mut rng = StdRng::seed_from_u64(11);
        for (rows, cols) in [(1, 1), (3, 7), (16, 16), (64, 33)] {
            let m = Matrix::uniform(rows, cols, 1.0, &mut rng);
            let x: Vec<f32> = (0..cols).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            let mut y = vec![f32::NAN; rows];
            m.matvec_into(&x, &mut y);
            assert_eq!(y, m.matvec(&x));
        }
    }

    #[test]
    fn blocked_gemm_matches_naive_reference() {
        let mut rng = StdRng::seed_from_u64(12);
        // Widths straddling the lane block (1, partial, exact, multi-block).
        for (rows, cols, width) in [(5, 3, 1), (8, 8, 3), (16, 9, 8), (7, 13, 11), (32, 17, 24)] {
            let m = Matrix::uniform(rows, cols, 1.0, &mut rng);
            let x: Vec<f32> = (0..cols * width)
                .map(|_| rng.gen_range(-2.0f32..2.0))
                .collect();
            let mut y = vec![0.0f32; rows * width];
            m.matmul_add_into(&x, width, &mut y);
            let reference = matmul_reference(&m, &x, width);
            for (got, want) in y.iter().zip(reference.iter()) {
                assert!((got - want).abs() < 1e-5, "gemm mismatch: {got} vs {want}");
            }
        }
    }

    #[test]
    fn matmul_matches_naive_reference() {
        let mut rng = StdRng::seed_from_u64(13);
        let a = Matrix::uniform(9, 5, 1.0, &mut rng);
        let b = Matrix::uniform(5, 12, 1.0, &mut rng);
        let c = a.matmul(&b);
        assert_eq!(c.rows(), 9);
        assert_eq!(c.cols(), 12);
        let reference = matmul_reference(&a, b.data(), 12);
        for (got, want) in c.data().iter().zip(reference.iter()) {
            assert!((got - want).abs() < 1e-5);
        }
    }

    /// The determinism guarantee of batched sampling: every column of a
    /// batched product is bitwise identical to the serial matrix-vector
    /// product of that column.
    #[test]
    fn batched_gemm_bitwise_equals_matvec() {
        let mut rng = StdRng::seed_from_u64(14);
        for width in [1, 2, 7, 8, 9, 16, 19] {
            let m = Matrix::uniform(24, 31, 1.0, &mut rng);
            let cols: Vec<Vec<f32>> = (0..width)
                .map(|_| (0..31).map(|_| rng.gen_range(-3.0f32..3.0)).collect())
                .collect();
            // Interleave the columns into the GEMM layout.
            let mut x = vec![0.0f32; 31 * width];
            for (b, col) in cols.iter().enumerate() {
                for (k, &v) in col.iter().enumerate() {
                    x[k * width + b] = v;
                }
            }
            let mut y = vec![0.0f32; 24 * width];
            m.matmul_add_into(&x, width, &mut y);
            for (b, col) in cols.iter().enumerate() {
                let serial = m.matvec(col);
                for r in 0..24 {
                    assert_eq!(
                        y[r * width + b].to_bits(),
                        serial[r].to_bits(),
                        "lane {b} row {r} differs from serial matvec"
                    );
                }
            }
        }
    }

    /// The training-path analogue of `batched_gemm_bitwise_equals_matvec`:
    /// at width 1 the transposed GEMM must reproduce `matvec_transpose_add`
    /// bitwise — including its zero-row skip, which is why the inputs mix in
    /// exact zeros and negative-zero accumulator targets.
    #[test]
    fn transposed_gemm_width1_bitwise_equals_matvec_transpose() {
        let mut rng = StdRng::seed_from_u64(21);
        for (rows, cols) in [(1, 1), (7, 5), (24, 31), (64, 9)] {
            let m = Matrix::uniform(rows, cols, 1.0, &mut rng);
            let x: Vec<f32> = (0..rows)
                .map(|i| {
                    if i % 3 == 0 {
                        0.0
                    } else {
                        rng.gen_range(-2.0f32..2.0)
                    }
                })
                .collect();
            let mut y_serial = vec![-0.0f32; cols];
            let mut y_batched = vec![-0.0f32; cols];
            m.matvec_transpose_add(&x, &mut y_serial);
            m.matmul_transpose_add_into(&x, 1, &mut y_batched);
            for (a, b) in y_serial.iter().zip(y_batched.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "width-1 transposed GEMM differs");
            }
        }
    }

    #[test]
    fn transposed_gemm_matches_naive_reference() {
        let mut rng = StdRng::seed_from_u64(22);
        for (rows, cols, width) in [(5, 3, 2), (16, 9, 8), (7, 13, 11)] {
            let m = Matrix::uniform(rows, cols, 1.0, &mut rng);
            let x: Vec<f32> = (0..rows * width)
                .map(|_| rng.gen_range(-2.0f32..2.0))
                .collect();
            let mut y = vec![0.0f32; cols * width];
            m.matmul_transpose_add_into(&x, width, &mut y);
            for c in 0..cols {
                for b in 0..width {
                    let mut want = 0.0f64;
                    for r in 0..rows {
                        want += f64::from(m.get(r, c)) * f64::from(x[r * width + b]);
                    }
                    let got = y[c * width + b];
                    assert!(
                        (f64::from(got) - want).abs() < 1e-4,
                        "transposed gemm mismatch at ({c},{b}): {got} vs {want}"
                    );
                }
            }
        }
    }

    /// At width 1 the batched outer-product accumulator must reproduce
    /// `add_outer` bitwise, zero-row skip included.
    #[test]
    fn add_outer_batch_width1_bitwise_equals_add_outer() {
        let mut rng = StdRng::seed_from_u64(23);
        for (rows, cols) in [(1, 1), (8, 5), (24, 13)] {
            let mut serial = Matrix::uniform(rows, cols, 0.5, &mut rng);
            let mut batched = serial.clone();
            let a: Vec<f32> = (0..rows)
                .map(|i| {
                    if i % 4 == 1 {
                        0.0
                    } else {
                        rng.gen_range(-2.0f32..2.0)
                    }
                })
                .collect();
            let b: Vec<f32> = (0..cols).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            serial.add_outer(&a, &b);
            batched.add_outer_batch(&a, &b, 1);
            for (x, y) in serial.data().iter().zip(batched.data().iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "width-1 outer batch differs");
            }
        }
    }

    #[test]
    fn add_outer_batch_matches_lane_sum_reference() {
        let mut rng = StdRng::seed_from_u64(24);
        for (rows, cols, width) in [(4, 3, 2), (9, 7, 8), (6, 11, 5)] {
            let mut m = Matrix::zeros(rows, cols);
            let a: Vec<f32> = (0..rows * width)
                .map(|_| rng.gen_range(-2.0f32..2.0))
                .collect();
            let b: Vec<f32> = (0..cols * width)
                .map(|_| rng.gen_range(-2.0f32..2.0))
                .collect();
            m.add_outer_batch(&a, &b, width);
            for r in 0..rows {
                for c in 0..cols {
                    let mut want = 0.0f64;
                    for lane in 0..width {
                        want += f64::from(a[r * width + lane]) * f64::from(b[lane * cols + c]);
                    }
                    let got = m.get(r, c);
                    assert!(
                        (f64::from(got) - want).abs() < 1e-4,
                        "outer batch mismatch at ({r},{c}): {got} vs {want}"
                    );
                }
            }
        }
    }

    /// The row-blocked matvec must agree with a naive one-row-at-a-time
    /// left-fold reference bitwise for every row count around the block
    /// size: `matvec_add` folds from the current `y` value, `matvec_into`
    /// from zero.
    #[test]
    fn row_blocked_matvec_bitwise_matches_scalar_rows() {
        let mut rng = StdRng::seed_from_u64(25);
        for rows in [1, 2, 3, 4, 5, 7, 8, 9, 15, 64] {
            let cols = 1 + rows % 13;
            let m = Matrix::uniform(rows, cols, 1.0, &mut rng);
            let x: Vec<f32> = (0..cols).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            let fold = |seed: f32, row: &[f32]| {
                let mut acc = seed;
                for (a, b) in row.iter().zip(x.iter()) {
                    acc += a * b;
                }
                acc
            };
            let mut blocked = vec![0.1f32; rows];
            m.matvec_add(&x, &mut blocked);
            for (row, b) in m.data().chunks_exact(cols).zip(blocked.iter()) {
                assert_eq!(
                    fold(0.1, row).to_bits(),
                    b.to_bits(),
                    "rows={rows} matvec_add differs"
                );
            }
            let mut stored = vec![f32::NAN; rows];
            m.matvec_into(&x, &mut stored);
            for (row, s) in m.data().chunks_exact(cols).zip(stored.iter()) {
                assert_eq!(s.to_bits(), fold(0.0, row).to_bits(), "matvec_into differs");
            }
        }
    }

    #[test]
    fn fused_cell_matches_scalar_reference() {
        let mut rng = StdRng::seed_from_u64(15);
        let hs = 13;
        let z: Vec<f32> = (0..4 * hs).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
        let c0: Vec<f32> = (0..hs).map(|_| rng.gen_range(-1.0f32..1.0)).collect();

        // Scalar reference (the original per-gate formulation).
        let mut c_ref = c0.clone();
        let mut h_ref = vec![0.0f32; hs];
        for j in 0..hs {
            let gi = sigmoid(z[j]);
            let gf = sigmoid(z[hs + j]);
            let gg = fast_tanh(z[2 * hs + j]);
            let go = sigmoid(z[3 * hs + j]);
            c_ref[j] = gf * c0[j] + gi * gg;
            h_ref[j] = go * fast_tanh(c_ref[j]);
        }

        // In-place variant.
        let mut c = c0.clone();
        let mut h = vec![0.0f32; hs];
        lstm_cell_inplace(&z, &mut c, &mut h);
        assert_eq!(c, c_ref);
        assert_eq!(h, h_ref);

        // Cached variant agrees and fills consistent gate activations.
        let (mut gi, mut gf, mut gg, mut go) =
            (vec![0.0; hs], vec![0.0; hs], vec![0.0; hs], vec![0.0; hs]);
        let (mut c_new, mut tanh_c, mut h_new) = (vec![0.0; hs], vec![0.0; hs], vec![0.0; hs]);
        lstm_cell_cached(
            &z,
            &c0,
            &mut gi,
            &mut gf,
            &mut gg,
            &mut go,
            &mut c_new,
            &mut tanh_c,
            &mut h_new,
        );
        assert_eq!(c_new, c_ref);
        assert_eq!(h_new, h_ref);
        for j in 0..hs {
            assert!((tanh_c[j] - fast_tanh(c_new[j])).abs() < 1e-6);
            assert!((h_new[j] - go[j] * tanh_c[j]).abs() < 1e-6);
        }

        // Batched variant on an interleaved two-stream buffer: lane 1 holds
        // the reference problem, lane 0 independent garbage; lane 1's result
        // must match the scalar reference bitwise.
        let width = 2;
        let mut z2 = vec![0.0f32; 4 * hs * width];
        for (row, &v) in z.iter().enumerate() {
            z2[row * width + 1] = v;
            z2[row * width] = rng.gen_range(-3.0f32..3.0);
        }
        let mut c_batch = vec![0.0f32; hs * width];
        let mut h_batch = vec![0.0f32; hs * width];
        for j in 0..hs {
            c_batch[j * width + 1] = c0[j];
            c_batch[j * width] = rng.gen_range(-1.0f32..1.0);
        }
        lstm_cell_fused_batch(&z2, width, &mut c_batch, &mut h_batch);
        for j in 0..hs {
            assert_eq!(c_batch[j * width + 1], c_ref[j]);
            assert_eq!(h_batch[j * width + 1], h_ref[j]);
        }
    }

    /// Packing is a bit-exact permutation: pack → unpack reproduces every
    /// matrix bitwise, across dims that are not multiples of the panel size.
    #[test]
    fn packed_roundtrip_is_bitwise_exact() {
        let mut rng = StdRng::seed_from_u64(31);
        for (rows, cols) in [(1, 1), (3, 5), (8, 8), (9, 7), (17, 13), (64, 33), (70, 70)] {
            let m = Matrix::uniform(rows, cols, 1.0, &mut rng);
            let back = PackedMatrix::pack(&m).unpack();
            assert_eq!(back.rows(), rows);
            assert_eq!(back.cols(), cols);
            for (a, b) in m.data().iter().zip(back.data().iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "pack roundtrip differs");
            }
            // And the transposed pack unpacks to the transpose.
            let back_t = PackedMatrix::pack_transpose(&m).unpack();
            assert_eq!(back_t.rows(), cols);
            assert_eq!(back_t.cols(), rows);
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(
                        m.get(r, c).to_bits(),
                        back_t.get(c, r).to_bits(),
                        "transpose pack roundtrip differs at ({r},{c})"
                    );
                }
            }
        }
    }

    /// The packed matvec and GEMM must be bitwise identical to the unpacked
    /// reference kernels at every width and at odd dims (rows, cols and
    /// width not multiples of the panel, k-block or lane-block sizes) — the
    /// kernel-parity guarantee the packed hot paths rest on.
    #[test]
    fn packed_kernels_bitwise_match_unpacked_reference() {
        let mut rng = StdRng::seed_from_u64(32);
        for (rows, cols) in [(1, 1), (5, 3), (8, 16), (13, 9), (31, 29), (67, 131)] {
            let m = Matrix::uniform(rows, cols, 1.0, &mut rng);
            let packed = PackedMatrix::pack(&m);
            // Matvec, both seeds.
            let x: Vec<f32> = (0..cols).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            let mut y_ref = vec![0.3f32; rows];
            let mut y_packed = y_ref.clone();
            m.matvec_add(&x, &mut y_ref);
            packed.matvec_add(&x, &mut y_packed);
            for (a, b) in y_ref.iter().zip(y_packed.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "packed matvec_add differs");
            }
            m.matvec_into(&x, &mut y_ref);
            packed.matvec_into(&x, &mut y_packed);
            for (a, b) in y_ref.iter().zip(y_packed.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "packed matvec_into differs");
            }
            // GEMM across widths straddling the lane blocks.
            for width in [1usize, 2, 3, 5, 8, 11, 16, 19, 32] {
                let x: Vec<f32> = (0..cols * width)
                    .map(|_| rng.gen_range(-2.0f32..2.0))
                    .collect();
                let seed: Vec<f32> = (0..rows * width)
                    .map(|_| rng.gen_range(-1.0f32..1.0))
                    .collect();
                let mut y_ref = seed.clone();
                let mut y_packed = seed;
                m.matmul_add_into(&x, width, &mut y_ref);
                packed.matmul_add_into(&x, width, &mut y_packed);
                for (a, b) in y_ref.iter().zip(y_packed.iter()) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "packed gemm differs at {rows}x{cols} width {width}"
                    );
                }
            }
        }
    }

    /// The transposed pack fed to the forward GEMM computes the transposed
    /// product bitwise identically to the unpacked transposed kernel — the
    /// backward pass's parity guarantee.
    #[test]
    fn packed_transpose_bitwise_matches_transposed_kernels() {
        let mut rng = StdRng::seed_from_u64(33);
        for (rows, cols) in [(1, 1), (7, 5), (24, 31), (65, 9)] {
            let m = Matrix::uniform(rows, cols, 1.0, &mut rng);
            let tpack = PackedMatrix::pack_transpose(&m);
            for width in [1usize, 2, 7, 8, 12] {
                let x: Vec<f32> = (0..rows * width)
                    .map(|_| rng.gen_range(-2.0f32..2.0))
                    .collect();
                let seed: Vec<f32> = (0..cols * width)
                    .map(|_| rng.gen_range(-1.0f32..1.0))
                    .collect();
                let mut y_ref = seed.clone();
                let mut y_packed = seed;
                m.matmul_transpose_add_into(&x, width, &mut y_ref);
                tpack.matmul_add_into(&x, width, &mut y_packed);
                for (a, b) in y_ref.iter().zip(y_packed.iter()) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "transposed pack differs at {rows}x{cols} width {width}"
                    );
                }
            }
        }
    }

    /// Row-parallel kernels are bitwise identical at any thread count: the
    /// operand is big enough to cross the parallel threshold, and 1, 2 and 5
    /// workers must produce the same bits (disjoint output rows, unified
    /// fold).
    #[test]
    fn packed_parallel_kernels_are_thread_count_invariant() {
        let mut rng = StdRng::seed_from_u64(34);
        let (rows, cols, width) = (520, 640, 8); // rows*cols*width > PAR_MIN_WORK
        assert!(rows * cols * width >= PAR_MIN_WORK);
        let m = Matrix::uniform(rows, cols, 0.5, &mut rng);
        let packed = PackedMatrix::pack(&m);
        let x: Vec<f32> = (0..cols * width)
            .map(|_| rng.gen_range(-2.0f32..2.0))
            .collect();
        let seed: Vec<f32> = (0..rows * width)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        let reference = rayon::with_num_threads(1, || {
            let mut y = seed.clone();
            packed.matmul_add_into(&x, width, &mut y);
            y
        });
        for threads in [2usize, 5] {
            let got = rayon::with_num_threads(threads, || {
                let mut y = seed.clone();
                packed.matmul_add_into(&x, width, &mut y);
                y
            });
            for (a, b) in reference.iter().zip(got.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads} differ");
            }
        }
        // The parallel outer product too.
        let a: Vec<f32> = (0..rows * width)
            .map(|_| rng.gen_range(-2.0f32..2.0))
            .collect();
        let b: Vec<f32> = (0..cols * width)
            .map(|_| rng.gen_range(-2.0f32..2.0))
            .collect();
        let reference = rayon::with_num_threads(1, || {
            let mut g = Matrix::zeros(rows, cols);
            g.add_outer_batch(&a, &b, width);
            g
        });
        for threads in [3usize, 6] {
            let got = rayon::with_num_threads(threads, || {
                let mut g = Matrix::zeros(rows, cols);
                g.add_outer_batch(&a, &b, width);
                g
            });
            for (x, y) in reference.data().iter().zip(got.data().iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "outer threads={threads} differ");
            }
        }
    }

    /// Deferring a block of outer products through the span kernel is
    /// bitwise identical to applying them one timestep at a time — the
    /// guarantee that lets the backward pass cut its gradient traffic
    /// without changing a bit. Dims straddle the quad/tile boundaries.
    #[test]
    fn packed_deferred_outer_spans_bitwise_match_sequential() {
        let mut rng = StdRng::seed_from_u64(35);
        for (rows, cols, width, steps) in [(4, 3, 2, 1), (9, 17, 8, 3), (26, 33, 5, 7)] {
            let mut sequential = Matrix::uniform(rows, cols, 0.5, &mut rng);
            let mut deferred = sequential.clone();
            let a_spans: Vec<Vec<f32>> = (0..steps)
                .map(|_| {
                    (0..rows * width)
                        .map(|_| rng.gen_range(-2.0f32..2.0))
                        .collect()
                })
                .collect();
            let b_spans: Vec<Vec<f32>> = (0..steps)
                .map(|_| {
                    (0..cols * width)
                        .map(|_| rng.gen_range(-2.0f32..2.0))
                        .collect()
                })
                .collect();
            for (a, b) in a_spans.iter().zip(b_spans.iter()) {
                sequential.add_outer_batch(a, b, width);
            }
            let spans: Vec<(&[f32], &[f32])> = a_spans
                .iter()
                .zip(b_spans.iter())
                .map(|(a, b)| (a.as_slice(), b.as_slice()))
                .collect();
            let chunks: Vec<_> = spans.chunks(2).collect();
            for block in &chunks {
                deferred.add_outer_batch_spans(block, width);
            }
            for (x, y) in sequential.data().iter().zip(deferred.data().iter()) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "deferred spans differ at {rows}x{cols} w{width} steps{steps}"
                );
            }
        }
    }

    /// The block plan is a pure function of the dims and never produces
    /// degenerate blocks.
    #[test]
    fn block_plan_is_deterministic_and_sane() {
        for (rows, cols, width) in [(1, 1, 1), (256, 64, 32), (2048, 512, 8), (8192, 2048, 16)] {
            let a = BlockPlan::for_kernel(rows, cols, width);
            let b = BlockPlan::for_kernel(rows, cols, width);
            assert_eq!(a, b);
            assert!(a.kc >= 1 && a.kc <= cols.max(1));
            assert!(a.lane_block >= 1 && a.lane_block <= GEMM_LANES);
            assert!(a.lane_block <= width.max(1) || a.lane_block == 1);
        }
        // Wider batches get shorter k-blocks (the L1 budget is shared).
        let narrow = BlockPlan::for_kernel(2048, 2048, 1);
        let wide = BlockPlan::for_kernel(2048, 2048, 16);
        assert!(wide.kc <= narrow.kc);
        // Paper-scale operands parallelise, test-scale ones do not.
        assert!(BlockPlan::for_kernel(8192, 2048, 8).parallel);
        assert!(!BlockPlan::for_kernel(256, 64, 8).parallel);
    }

    #[test]
    fn softmax_degenerate_inputs_fall_back_to_uniform() {
        // All -inf: exponential mass is zero; the old behaviour left raw
        // exponentials (NaN) behind.
        let mut x = vec![f32::NEG_INFINITY; 4];
        softmax_in_place(&mut x);
        assert!(x.iter().all(|v| (*v - 0.25).abs() < 1e-6), "{x:?}");
        // A NaN poisons the sum; still a valid distribution afterwards.
        let mut y = vec![0.0, f32::NAN, 0.0];
        softmax_in_place(&mut y);
        let sum: f32 = y.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5, "{y:?}");
        // Empty slice is a no-op.
        let mut empty: Vec<f32> = vec![];
        softmax_in_place(&mut empty);
    }
}
