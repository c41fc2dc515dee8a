//! Minimal dense matrix/vector math used by the LSTM language model.
//!
//! The paper trains its model in Torch; this crate provides the small subset
//! of tensor operations an LSTM needs (dense matrix products, AXPY,
//! element-wise nonlinearities) implemented directly over `Vec<f32>` so the
//! reproduction has no external numerical dependencies.
//!
//! There is one optimised path and one reference. The optimised path is the
//! packed, k-blocked GEMM ([`PackedMatrix::matmul_add_into`], fed a
//! [`PackedMatrix::pack_transpose`] for the backward products) and the
//! span-blocked outer product ([`Matrix::add_outer_batch_spans`]); it is what
//! sampling and training run at every batch width, one lane included. The
//! reference is the three two-deep loops [`Matrix::matvec_add`],
//! [`Matrix::matvec_transpose_add`] and [`Matrix::add_outer`], which nothing
//! but the test suites calls.
//!
//! # The unified accumulation order
//!
//! Every kernel in this module reduces each output element as a **left
//! fold**: the element's current value (bias, prior partial, accumulated
//! gradient) is the fold seed, and contribution terms are added one at a time
//! in a fixed canonical sequence (ascending `k`, ascending lane). A left fold
//! is invariant to where block boundaries fall — `((y + a) + b) + c` is the
//! same floating-point computation whether the partial lives in a register or
//! was spilled to memory between blocks — so cache blocking ([`BlockPlan`]),
//! row-panel packing, lane tiling and row-parallel splits over disjoint
//! output rows all preserve bitwise results *by construction*. This is what
//! keeps every lane of a batched step bitwise identical to the reference
//! loops, and batched sampling bitwise identical to serial sampling, at any
//! model scale, block shape or rayon thread count.
//!
//! # The lane-parallel element-wise stage
//!
//! Between and after the GEMMs, a batched step is element-wise: the gate
//! activations and cell update ([`lstm_cell_fused_batch`],
//! [`lstm_cell_cached_batch`], one flat loop over `hidden x width`) and the
//! output softmax ([`softmax_lanes`], lanes in the vector dimension). These
//! loops run at vector width, and stay bitwise equal to the scalar
//! reference, for three reasons:
//!
//! * [`fast_exp`] is branch-free integer and float arithmetic. It reads its
//!   2^n scale off the bits of the rounding sum `x·log2(e) + 1.5·2^23`,
//!   which lies in `[2^23, 2^24)` where the ulp is 1, so those bits are
//!   exactly `0x4B40_0000 + n` — the same n a float-to-int conversion
//!   gives, without the saturating conversion that kept the loops scalar
//!   (checked against that conversion on every one of the 2^32 inputs).
//! * Each element's operations, and their order, are the reference's: a
//!   vector lane computes what the scalar code computes, nothing is
//!   reassociated, and rustc does not contract `a * b + c` into FMA.
//! * [`softmax_lanes`] keeps [`softmax_in_place`]'s fold per lane: max over
//!   ascending rows, `exp(v - max)` and the running sum over ascending rows,
//!   the divide or the uniform fallback. Turning the loops so one row is
//!   processed for many lanes at once changes which lane a register holds,
//!   never the order of one lane's operations.

use rand::prelude::*;
use rand::rngs::StdRng;
use rayon::ParallelSliceMut;

/// A dense row-major `rows x cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
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

    /// `y += self * x`: the reference matrix-vector product. Each output
    /// element is the unified left fold written out — seed `y[r]`, add
    /// `self[r][k] * x[k]` for `k` ascending — which every lane of
    /// [`PackedMatrix::matmul_add_into`] reproduces bitwise.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn matvec_add(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec output mismatch");
        for (dst, row) in y.iter_mut().zip(self.data.chunks_exact(self.cols.max(1))) {
            let mut acc = *dst;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += a * b;
            }
            *dst = acc;
        }
    }

    /// `y += self^T * x`: the reference transposed matrix-vector product of
    /// backpropagation. Per output element `c` the reduction is the unified
    /// left fold: seed `y[c]`, then `self[r][c] * x[r]` for `r` ascending —
    /// bitwise what [`PackedMatrix::pack_transpose`] fed to
    /// [`PackedMatrix::matmul_add_into`] computes per lane.
    pub fn matvec_transpose_add(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.rows, "matvecT dimension mismatch");
        assert_eq!(y.len(), self.cols, "matvecT output mismatch");
        for (&xr, row) in x.iter().zip(self.data.chunks_exact(self.cols)) {
            for (dst, a) in y.iter_mut().zip(row.iter()) {
                *dst += a * xr;
            }
        }
    }

    /// Accumulate the outer product `self += a * b^T`: the reference gradient
    /// accumulation (one span of one lane of
    /// [`Matrix::add_outer_batch_spans`]).
    pub fn add_outer(&mut self, a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), self.rows, "outer product row mismatch");
        assert_eq!(b.len(), self.cols, "outer product col mismatch");
        for (&ar, row) in a.iter().zip(self.data.chunks_exact_mut(self.cols)) {
            for (dst, bv) in row.iter_mut().zip(b.iter()) {
                *dst += ar * bv;
            }
        }
    }

    /// Accumulate a block of batched outer products:
    /// `self += Σ_span Σ_lane a_span,lane * b_span,lane^T`, where each span
    /// is one timestep's `(a, b_lanes)` operand pair.
    ///
    /// `a` holds a `rows x width` matrix, lane-interleaved like every other
    /// batched operand; `b_lanes` holds the `width` right-hand vectors
    /// **lane-major** — lane `b`'s vector contiguous at
    /// `b_lanes[b*cols..(b+1)*cols]`. The training forward pass caches its
    /// backward operands in this layout (a cheap transposing copy per step),
    /// because it is what lets the hot loop here be a plain vectorisable
    /// AXPY (`row += a[r][lane] * b_lane`) with no horizontal reduction.
    ///
    /// This is the k-blocked gradient accumulation of truncated BPTT:
    /// handing a block of timesteps to one call loads and stores each (large)
    /// gradient element once per *block* instead of once per timestep, which
    /// is the dominant backward memory traffic. Per gradient element the
    /// reduction is the unified left fold over spans in the given order,
    /// lanes ascending within each span — exactly the sequence of
    /// [`Matrix::add_outer`] calls it stands for, so neither the block length
    /// nor the tile shape changes a bit (property-tested). Callers pass spans
    /// in timestep-descending order, the order of the backward sweep.
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
/// per-element order as the reference loops on [`Matrix`] — the left fold
/// makes the k-block cuts invisible — so the layout never changes a single
/// output bit, only the speed. Weight matrices are packed once per model
/// build / checkpoint load (sampling) or once per BPTT chunk (training,
/// where weights move).
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

    /// `y += A x`: the one-lane case of
    /// [`matmul_add_into`](PackedMatrix::matmul_add_into) (fold seeded with
    /// `y`) — one 8-wide vector FMA per `k` per panel, streaming the packed
    /// weights exactly once in layout order. Bitwise identical to
    /// [`Matrix::matvec_add`] on the source matrix.
    pub fn matvec_add(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec output mismatch");
        if self.rows == 0 || self.cols == 0 {
            return;
        }
        let panels = self.rows.div_ceil(ROW_PANEL).max(1);
        let (kc, cols) = (self.kc, self.cols);
        // A contiguous panel range's worth of the matvec: walks the packed
        // data in layout order (k-blocks outer, the range's panels inner).
        // The running fold per row spills to `y` between k-blocks — the
        // left fold makes the cut invisible.
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
                    acc[..yp.len()].copy_from_slice(yp);
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
    /// k-blocked GEMM.
    ///
    /// `x` holds a `cols x width` matrix and `y` a `rows x width` matrix,
    /// both row-major — equivalently, `width` column vectors stored
    /// interleaved, column `b` of `x` being `x[k * width + b]` for
    /// `k in 0..cols`. Each lane is an independent stream sharing the
    /// weights.
    ///
    /// The kernel walks the baked k-blocks outermost — reading the packed
    /// weights exactly sequentially — so the k-slice of `x` it re-streams
    /// per row panel stays L1-resident at any batch width; inside a k-block
    /// each panel is an 8-row x `lane_block`-lane register tile
    /// ([`BlockPlan`] picks the lane width). Above the parallel threshold,
    /// whole row panels are split across rayon workers. Every variation —
    /// k-block cut, lane width, row split, thread count — preserves the
    /// unified per-element left fold, so each lane is bitwise identical to
    /// [`Matrix::matvec_add`] on the source matrix and that lane's column
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
    let shifted = fx + 12_582_912.0f32;
    let n = shifted - 12_582_912.0f32;
    let g = x - n * C1 - n * C2;
    let z = g * g;
    let mut y = 1.987_569_2e-4f32;
    y = y * g + 1.398_199_9e-3;
    y = y * g + 8.333_452e-3;
    y = y * g + 4.166_579_6e-2;
    y = y * g + 1.666_666_6e-1;
    y = y * g + 5e-1;
    y = y * z + g + 1.0;
    // Scale by 2^n through the exponent bits. `shifted` lies in
    // [2^23, 2^24), where the ulp is 1, so its bits are exactly
    // `0x4B40_0000 + n`: the biased exponent `n + 127` is read off them with
    // integer arithmetic alone. (A float-to-int `n as i32` gives the same
    // integer, but its saturating semantics keep every lane loop over this
    // function scalar.) n stays in [-127, 128] for the clamped input range.
    let scale = f32::from_bits(shifted.to_bits().wrapping_sub(0x4B40_0000 - 127) << 23);
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

/// Fused LSTM cell update over a whole interleaved batch, in place (the
/// sampling path: gate activations are not retained).
///
/// `z` holds the four stacked pre-activation gate blocks (input, forget,
/// cell candidate, output — the layout produced by `W_x x + W_h h + b`).
/// All buffers are lane-interleaved: gate row `r` of lane `b` lives at
/// `z[r * width + b]`, and cell/hidden element `j` of lane `b` at
/// `c[j * width + b]` / `h[j * width + b]`. The update is one flat loop of
/// pure branchless arithmetic ([`fast_exp`] under the hood) over all
/// `hidden x width` elements, so the compiler vectorises it; per element
/// the operations and their order are exactly those of the reference
/// [`LstmModel::step`], so batched updates stay bitwise identical to it.
///
/// [`LstmModel::step`]: crate::lstm::LstmModel::step
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
    // Gate row `g*hs + j` of lane `b` sits at the flat index
    // `g*hs*width + (j*width + b)`: four fixed gate offsets.
    let hw = hs * width;
    let (zi, zrest) = z.split_at(hw);
    let (zf, zrest) = zrest.split_at(hw);
    let (zg, zo) = zrest.split_at(hw);
    for e in 0..hw {
        c[e] = sigmoid(zf[e]) * c[e] + sigmoid(zi[e]) * fast_tanh(zg[e]);
        h[e] = sigmoid(zo[e]) * fast_tanh(c[e]);
    }
}

/// Fused LSTM cell update over a whole interleaved batch, retaining gate
/// activations for backpropagation (the training forward path).
///
/// Writes the input/forget/candidate/output gate activations, the new cell
/// state, `tanh(c)` and the new hidden state into the caller's buffers, all
/// lane-interleaved like [`lstm_cell_fused_batch`]. Per element the
/// operations and their order are exactly those of the reference
/// [`LstmModel::step`]; the loop is branchless so it vectorises.
///
/// [`LstmModel::step`]: crate::lstm::LstmModel::step
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

/// Widest lane tile of [`PackedMatrix::matmul_add_into`]: eight independent
/// f32 accumulators fill a 256-bit vector register.
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

/// Column-tile width of [`Matrix::add_outer_batch_spans`]: sixteen f32 (two
/// 256-bit registers) accumulated across every span and lane before one
/// store.
const SPAN_TILE: usize = 16;

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
        while c0 + SPAN_TILE <= cols {
            outer_span_tile::<SPAN_TILE>(spans, abase, width, cols, c0, quad);
            c0 += SPAN_TILE;
        }
        if c0 + SPAN_TILE / 2 <= cols {
            outer_span_tile::<{ SPAN_TILE / 2 }>(spans, abase, width, cols, c0, quad);
            c0 += SPAN_TILE / 2;
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
        while c0 + SPAN_TILE <= cols {
            outer_span_col_tile::<SPAN_TILE>(spans, abase, width, cols, c0, row);
            c0 += SPAN_TILE;
        }
        if c0 + SPAN_TILE / 2 <= cols {
            outer_span_col_tile::<{ SPAN_TILE / 2 }>(spans, abase, width, cols, c0, row);
            c0 += SPAN_TILE / 2;
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

/// Numerically-stable softmax over a slice, in place.
///
/// Degenerate inputs whose exponential mass underflows to zero (e.g. a
/// slice of `-inf` logits) fall back to the uniform distribution, so the
/// result is always a valid probability distribution. [`softmax_lanes`]
/// computes exactly this, bit for bit, for every lane of a batch at once.
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

/// [`softmax_in_place`] for the first `lanes` lanes of a lane-interleaved
/// `rows x width` logit block, the lanes in the vector dimension: lane `b`'s
/// distribution lands in `out[b*rows..(b+1)*rows]` (batch-major), bitwise
/// what `softmax_in_place` makes of that lane's column.
///
/// Each lane keeps the reference's fold exactly — max over ascending rows,
/// then `exp(v - max)` and the running sum over ascending rows, then the
/// divide or the uniform fallback — only the loops are turned so that one
/// row's step runs for a tile of 16, 8 or 2 lanes side by side; a lane left
/// over on its own is copied out and handed to `softmax_in_place` itself.
/// `logits` is scratch: the normalised values overwrite it before they are
/// copied out.
///
/// # Panics
///
/// Panics if `lanes > width` or the buffer lengths disagree with `width`
/// and `lanes`.
pub fn softmax_lanes(logits: &mut [f32], width: usize, lanes: usize, out: &mut [f32]) {
    assert!(lanes <= width, "more lanes than the logit block holds");
    let rows = logits.len() / width.max(1);
    assert_eq!(logits.len(), rows * width, "logits must be a lane multiple");
    assert_eq!(out.len(), lanes * rows, "output size mismatch");
    let mut l0 = 0;
    while l0 < lanes {
        // A tile may run on into the padding lanes past `lanes` (their
        // logits are scratch too); only the live lanes are copied out.
        let live = lanes - l0;
        l0 += if live > 8 && l0 + 16 <= width {
            softmax_tile::<16>(logits, width, l0, live.min(16), out)
        } else if live > 2 && l0 + 8 <= width {
            softmax_tile::<8>(logits, width, l0, live.min(8), out)
        } else if live > 1 {
            softmax_tile::<2>(logits, width, l0, 2, out)
        } else {
            let dst = &mut out[l0 * rows..(l0 + 1) * rows];
            for (p, row) in dst.iter_mut().zip(logits.chunks_exact(width)) {
                *p = row[l0];
            }
            softmax_in_place(dst);
            1
        };
    }
}

/// One `L`-lane tile of [`softmax_lanes`], lanes `l0..l0 + L`, of which the
/// first `live` are copied out; returns `live`. The lane loops have a fixed
/// length, so each pass over the rows is straight vector code.
#[inline(always)]
fn softmax_tile<const L: usize>(
    logits: &mut [f32],
    width: usize,
    l0: usize,
    live: usize,
    out: &mut [f32],
) -> usize {
    let rows = logits.len() / width;
    let mut max = [f32::NEG_INFINITY; L];
    for row in logits.chunks_exact(width) {
        for (m, &v) in max.iter_mut().zip(&row[l0..][..L]) {
            *m = m.max(v);
        }
    }
    let mut sum = [0.0f32; L];
    for row in logits.chunks_exact_mut(width) {
        for ((s, &m), v) in sum.iter_mut().zip(&max).zip(&mut row[l0..][..L]) {
            *v = fast_exp(*v - m);
            *s += *v;
        }
    }
    for row in logits.chunks_exact_mut(width) {
        for (v, &s) in row[l0..][..L].iter_mut().zip(&sum) {
            *v /= s;
        }
    }
    for (lane, &s) in (l0..).zip(&sum[..live]) {
        let ok = s > 0.0 && s.is_finite();
        let dst = &mut out[lane * rows..(lane + 1) * rows];
        for (p, row) in dst.iter_mut().zip(logits.chunks_exact(width)) {
            *p = if ok { row[lane] } else { 1.0 / rows as f32 };
        }
    }
    live
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn matvec_basic() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut y = vec![0.0; 2];
        m.matvec_add(&[1.0, 0.0, -1.0], &mut y);
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

    fn random_vec(rng: &mut StdRng, len: usize, scale: f32) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-scale..scale)).collect()
    }

    /// Lane `b` of a lane-interleaved buffer of `width` lanes.
    fn lane(buf: &[f32], width: usize, b: usize) -> Vec<f32> {
        buf.iter().skip(b).step_by(width).copied().collect()
    }

    /// Run `packed.matmul_add_into` on random operands at `width` lanes and
    /// require every lane to be bitwise what `reference(x_lane, y_lane)`
    /// (one of the naive `Matrix` loops) makes of that lane's column.
    fn assert_lanes_match_reference(
        packed: &PackedMatrix,
        reference: impl Fn(&[f32], &mut [f32]),
        width: usize,
        rng: &mut StdRng,
        context: &str,
    ) {
        let x = random_vec(rng, packed.cols() * width, 2.0);
        let seed = random_vec(rng, packed.rows() * width, 1.0);
        let mut y = seed.clone();
        packed.matmul_add_into(&x, width, &mut y);
        for b in 0..width {
            let mut want = lane(&seed, width, b);
            reference(&lane(&x, width, b), &mut want);
            for (r, (got, want)) in lane(&y, width, b).iter().zip(want.iter()).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{context} width {width}: lane {b} row {r} differs from the reference"
                );
            }
        }
    }

    /// `y += a * x` per lane in f64, for the tolerance tests.
    fn matmul_f64(a: &Matrix, x: &[f32], width: usize) -> Vec<f64> {
        let mut y = vec![0.0f64; a.rows() * width];
        for r in 0..a.rows() {
            for b in 0..width {
                for k in 0..a.cols() {
                    y[r * width + b] += f64::from(a.get(r, k)) * f64::from(x[k * width + b]);
                }
            }
        }
        y
    }

    fn transpose(m: &Matrix) -> Matrix {
        let mut t = Matrix::zeros(m.cols(), m.rows());
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                t.set(c, r, m.get(r, c));
            }
        }
        t
    }

    #[test]
    fn blocked_gemm_matches_naive_reference() {
        let mut rng = StdRng::seed_from_u64(12);
        // Widths straddling the lane tiles (1, partial, exact, multi-tile).
        for (rows, cols, width) in [(5, 3, 1), (8, 8, 3), (16, 9, 8), (7, 13, 11), (32, 17, 24)] {
            let m = Matrix::uniform(rows, cols, 1.0, &mut rng);
            let x = random_vec(&mut rng, cols * width, 2.0);
            let mut y = vec![0.0f32; rows * width];
            PackedMatrix::pack(&m).matmul_add_into(&x, width, &mut y);
            for (got, want) in y.iter().zip(matmul_f64(&m, &x, width)) {
                assert!(
                    (f64::from(*got) - want).abs() < 1e-5,
                    "gemm mismatch: {got} vs {want}"
                );
            }
        }
    }

    /// The determinism guarantee of batched sampling: every lane of the
    /// packed GEMM is bitwise the reference matrix-vector product of that
    /// lane's column, at every width through two full tiles and on both
    /// sides of the row-parallel threshold.
    #[test]
    fn batched_gemm_bitwise_equals_matvec() {
        let mut rng = StdRng::seed_from_u64(14);
        let m = Matrix::uniform(24, 31, 1.0, &mut rng);
        let packed = PackedMatrix::pack(&m);
        for width in 1..=17 {
            assert_lanes_match_reference(
                &packed,
                |x, y| m.matvec_add(x, y),
                width,
                &mut rng,
                "24x31",
            );
        }
        let (rows, cols) = (520, 640);
        let m = Matrix::uniform(rows, cols, 0.5, &mut rng);
        let packed = PackedMatrix::pack(&m);
        for width in [2usize, 8] {
            assert_eq!(rows * cols * width >= PAR_MIN_WORK, width == 8);
            rayon::with_num_threads(3, || {
                assert_lanes_match_reference(
                    &packed,
                    |x, y| m.matvec_add(x, y),
                    width,
                    &mut rng,
                    "520x640",
                )
            });
        }
    }

    /// The training-path analogue of `batched_gemm_bitwise_equals_matvec`:
    /// at width 1 the transposed pack must reproduce `matvec_transpose_add`
    /// bitwise, with exact zeros among the inputs and negative-zero
    /// accumulator targets.
    #[test]
    fn transposed_gemm_width1_bitwise_equals_matvec_transpose() {
        let mut rng = StdRng::seed_from_u64(21);
        for (rows, cols) in [(1, 1), (7, 5), (24, 31), (64, 9)] {
            let m = Matrix::uniform(rows, cols, 1.0, &mut rng);
            let mut x = random_vec(&mut rng, rows, 2.0);
            x.iter_mut().step_by(3).for_each(|v| *v = 0.0);
            let mut y_reference = vec![-0.0f32; cols];
            let mut y_packed = vec![-0.0f32; cols];
            m.matvec_transpose_add(&x, &mut y_reference);
            PackedMatrix::pack_transpose(&m).matmul_add_into(&x, 1, &mut y_packed);
            for (a, b) in y_reference.iter().zip(y_packed.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "width-1 transposed GEMM differs");
            }
        }
    }

    #[test]
    fn transposed_gemm_matches_naive_reference() {
        let mut rng = StdRng::seed_from_u64(22);
        for (rows, cols, width) in [(5, 3, 2), (16, 9, 8), (7, 13, 11)] {
            let m = Matrix::uniform(rows, cols, 1.0, &mut rng);
            let x = random_vec(&mut rng, rows * width, 2.0);
            let mut y = vec![0.0f32; cols * width];
            PackedMatrix::pack_transpose(&m).matmul_add_into(&x, width, &mut y);
            for (got, want) in y.iter().zip(matmul_f64(&transpose(&m), &x, width)) {
                assert!(
                    (f64::from(*got) - want).abs() < 1e-4,
                    "transposed gemm mismatch: {got} vs {want}"
                );
            }
        }
    }

    /// What `add_outer_batch_spans` stands for: one reference `add_outer`
    /// per span in the given order, lanes ascending within a span.
    fn add_outer_reference(m: &mut Matrix, spans: &[(&[f32], &[f32])], width: usize) {
        let cols = m.cols();
        for (a, b_lanes) in spans {
            for b in 0..width {
                m.add_outer(&lane(a, width, b), &b_lanes[b * cols..(b + 1) * cols]);
            }
        }
    }

    fn assert_bitwise_equal(got: &Matrix, want: &Matrix, context: &str) {
        for (i, (x, y)) in got.data().iter().zip(want.data().iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{context}: element {i} differs");
        }
    }

    /// One span of the batched outer product is bitwise the lane-ascending
    /// sum of reference outer products, at every width through two full
    /// tiles and at shapes straddling the 4-row / 16-column tile edges.
    #[test]
    fn add_outer_batch_matches_lane_sum_reference() {
        let mut rng = StdRng::seed_from_u64(24);
        for (rows, cols) in [(1, 1), (4, 3), (9, 7), (6, 11), (5, 40), (26, 33)] {
            for width in 1..=17 {
                let mut want = Matrix::uniform(rows, cols, 0.5, &mut rng);
                let mut got = want.clone();
                let mut a = random_vec(&mut rng, rows * width, 2.0);
                a.iter_mut().step_by(5).for_each(|v| *v = 0.0);
                let b = random_vec(&mut rng, cols * width, 2.0);
                add_outer_reference(&mut want, &[(&a, &b)], width);
                got.add_outer_batch_spans(&[(&a, &b)], width);
                assert_bitwise_equal(&got, &want, &format!("{rows}x{cols} width {width}"));
            }
        }
    }

    #[test]
    fn fused_cell_matches_scalar_reference() {
        let mut rng = StdRng::seed_from_u64(15);
        let hs = 13;
        let z = random_vec(&mut rng, 4 * hs, 3.0);
        let c0 = random_vec(&mut rng, hs, 1.0);

        // Scalar reference (the per-gate formulation of `LstmModel::step`).
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

        // Both batched variants on an interleaved two-stream buffer: lane 1
        // holds the reference problem, lane 0 independent garbage; lane 1's
        // result must match the scalar reference bitwise.
        let width = 2;
        let mut z2 = random_vec(&mut rng, 4 * hs * width, 3.0);
        let mut c2 = random_vec(&mut rng, hs * width, 1.0);
        z2.iter_mut()
            .skip(1)
            .step_by(width)
            .zip(&z)
            .for_each(|(d, s)| *d = *s);
        c2.iter_mut()
            .skip(1)
            .step_by(width)
            .zip(&c0)
            .for_each(|(d, s)| *d = *s);

        let mut c_batch = c2.clone();
        let mut h_batch = vec![0.0f32; hs * width];
        lstm_cell_fused_batch(&z2, width, &mut c_batch, &mut h_batch);
        assert_eq!(lane(&c_batch, width, 1), c_ref);
        assert_eq!(lane(&h_batch, width, 1), h_ref);

        // The cached variant agrees and fills consistent gate activations.
        let mut bufs = vec![vec![0.0f32; hs * width]; 7];
        let [gi, gf, gg, go, c_new, tanh_c, h_new] = &mut bufs[..] else {
            unreachable!()
        };
        lstm_cell_cached_batch(&z2, width, &c2, gi, gf, gg, go, c_new, tanh_c, h_new);
        assert_eq!(c_new, &c_batch);
        assert_eq!(h_new, &h_batch);
        for e in 0..hs * width {
            assert_eq!(tanh_c[e], fast_tanh(c_new[e]));
            assert_eq!(h_new[e], go[e] * tanh_c[e]);
            assert_eq!(c_new[e], gf[e] * c2[e] + gi[e] * gg[e]);
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

    /// The packed matvec and GEMM must be bitwise identical, lane by lane, to
    /// the reference loop over the unpacked matrix at odd dims (rows, cols
    /// and width not multiples of the panel, k-block or lane-tile sizes, and
    /// columns past one k-block) — the kernel-parity guarantee the hot
    /// paths rest on.
    #[test]
    fn packed_kernels_bitwise_match_unpacked_reference() {
        let mut rng = StdRng::seed_from_u64(32);
        for (rows, cols) in [
            (1, 1),
            (5, 3),
            (8, 16),
            (13, 9),
            (31, 29),
            (67, 131),
            (9, 300),
        ] {
            let m = Matrix::uniform(rows, cols, 1.0, &mut rng);
            let packed = PackedMatrix::pack(&m);
            let x = random_vec(&mut rng, cols, 2.0);
            let mut y_ref = vec![0.3f32; rows];
            let mut y_packed = y_ref.clone();
            m.matvec_add(&x, &mut y_ref);
            packed.matvec_add(&x, &mut y_packed);
            for (a, b) in y_ref.iter().zip(y_packed.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "packed matvec_add differs");
            }
            for width in [1usize, 2, 3, 5, 8, 11, 16, 19, 32] {
                assert_lanes_match_reference(
                    &packed,
                    |x, y| m.matvec_add(x, y),
                    width,
                    &mut rng,
                    &format!("{rows}x{cols}"),
                );
            }
        }
    }

    /// The transposed pack fed to the GEMM computes, lane by lane, the
    /// reference transposed product bitwise — the backward pass's parity
    /// guarantee.
    #[test]
    fn packed_transpose_bitwise_matches_transposed_kernels() {
        let mut rng = StdRng::seed_from_u64(33);
        for (rows, cols) in [(1, 1), (7, 5), (24, 31), (65, 9), (300, 9)] {
            let m = Matrix::uniform(rows, cols, 1.0, &mut rng);
            let tpack = PackedMatrix::pack_transpose(&m);
            for width in 1..=17 {
                assert_lanes_match_reference(
                    &tpack,
                    |x, y| m.matvec_transpose_add(x, y),
                    width,
                    &mut rng,
                    &format!("transposed {rows}x{cols}"),
                );
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
            g.add_outer_batch_spans(&[(&a, &b)], width);
            g
        });
        for threads in [3usize, 6] {
            let got = rayon::with_num_threads(threads, || {
                let mut g = Matrix::zeros(rows, cols);
                g.add_outer_batch_spans(&[(&a, &b)], width);
                g
            });
            for (x, y) in reference.data().iter().zip(got.data().iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "outer threads={threads} differ");
            }
        }
    }

    /// Handing the span kernel a whole block of timesteps is bitwise
    /// identical to applying the reference outer products one timestep and
    /// one lane at a time — the guarantee that lets the backward pass cut
    /// its gradient traffic without changing a bit. Dims straddle the
    /// quad/tile boundaries; the last case crosses the row-parallel
    /// threshold.
    #[test]
    fn packed_deferred_outer_spans_bitwise_match_sequential() {
        let mut rng = StdRng::seed_from_u64(35);
        for (rows, cols, width, steps) in [
            (4, 3, 2, 1),
            (9, 17, 8, 3),
            (26, 33, 5, 7),
            (520, 640, 4, 2),
        ] {
            let mut sequential = Matrix::uniform(rows, cols, 0.5, &mut rng);
            let mut deferred = sequential.clone();
            let a_spans: Vec<Vec<f32>> = (0..steps)
                .map(|_| random_vec(&mut rng, rows * width, 2.0))
                .collect();
            let b_spans: Vec<Vec<f32>> = (0..steps)
                .map(|_| random_vec(&mut rng, cols * width, 2.0))
                .collect();
            let spans: Vec<(&[f32], &[f32])> = a_spans
                .iter()
                .zip(b_spans.iter())
                .map(|(a, b)| (a.as_slice(), b.as_slice()))
                .collect();
            add_outer_reference(&mut sequential, &spans, width);
            rayon::with_num_threads(3, || {
                for block in spans.chunks(2) {
                    deferred.add_outer_batch_spans(block, width);
                }
            });
            assert_bitwise_equal(
                &deferred,
                &sequential,
                &format!("{rows}x{cols} w{width} steps{steps}"),
            );
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

    /// The former `fast_exp`, which took its 2^n scale from a float-to-int
    /// conversion (`n as i32`): the oracle the bit-derived scale must match.
    fn fast_exp_float_to_int(x: f32) -> f32 {
        const EXP_HI: f32 = 88.376_26;
        const EXP_LO: f32 = -87.336_55;
        const LOG2E: f32 = std::f32::consts::LOG2_E;
        const C1: f32 = 0.693_359_4;
        const C2: f32 = -2.121_944_4e-4;
        let x = x.clamp(EXP_LO, EXP_HI);
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
        let scale = f32::from_bits((((n as i32) + 127) << 23) as u32);
        y * scale
    }

    /// `fast_exp(x)` and the oracle agree bitwise (or are both NaN).
    fn assert_fast_exp_matches_oracle(x: f32) {
        let (got, want) = (fast_exp(x), fast_exp_float_to_int(x));
        assert!(
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
            "fast_exp({x:e}) [{:#010x}] = {got:e}, oracle {want:e}",
            x.to_bits()
        );
    }

    /// The bit-derived 2^n scale changes no output: at every rounding
    /// boundary of n (`(n ± ½)·ln 2`, a few ulps either side), on a stride
    /// through all 2^32 bit patterns, and at the special values.
    #[test]
    fn fast_exp_bit_derived_scale_matches_float_to_int_oracle() {
        for n in -127i32..=128 {
            for half in [-0.5f64, 0.5] {
                let edge = ((f64::from(n) + half) * std::f64::consts::LN_2) as f32;
                for ulps in -4i32..=4 {
                    assert_fast_exp_matches_oracle(f32::from_bits(
                        edge.to_bits().wrapping_add_signed(ulps),
                    ));
                }
            }
        }
        for bits in (0..=u32::MAX).step_by(251) {
            assert_fast_exp_matches_oracle(f32::from_bits(bits));
        }
        let clamp_ends = [88.376_26f32, -87.336_55];
        let specials = [
            0.0f32,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x0040_0000),
            f32::MIN_POSITIVE - f32::from_bits(1),
            -(f32::MIN_POSITIVE - f32::from_bits(1)),
            f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7F80_0001),
            f32::from_bits(0xFFFF_FFFF),
        ];
        for x in specials
            .into_iter()
            .chain(clamp_ends.into_iter().flat_map(|end| {
                (-2i32..=2).map(move |ulps| f32::from_bits(end.to_bits().wrapping_add_signed(ulps)))
            }))
        {
            assert_fast_exp_matches_oracle(x);
        }
    }

    /// Every one of the 2^32 inputs. Slow; run it in release:
    /// `cargo test -p clgen-neural --release -- --ignored fast_exp_exhaustive`.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; run in release"]
    fn fast_exp_exhaustive_matches_float_to_int_oracle() {
        for bits in 0..=u32::MAX {
            assert_fast_exp_matches_oracle(f32::from_bits(bits));
        }
    }

    /// `softmax_lanes` is, lane by lane, bitwise `softmax_in_place` of the
    /// lane's column: at widths through two 8-lane and one 16-lane tile and
    /// beyond, at every live-lane count, with degenerate lanes (all -inf, a
    /// NaN, a +inf, a ±1e30 spread) beside ordinary ones and garbage in the
    /// padding lanes.
    #[test]
    fn softmax_lanes_bitwise_matches_per_lane_softmax() {
        let mut rng = StdRng::seed_from_u64(41);
        for rows in [1usize, 5, 72] {
            for width in (1..=17).chain([24, 32]) {
                let mut block = random_vec(&mut rng, rows * width, 6.0);
                for b in 0..width {
                    let mut col: Vec<&mut f32> = block.iter_mut().skip(b).step_by(width).collect();
                    let r = b % rows;
                    match b % 7 {
                        1 => col.iter_mut().for_each(|v| **v = f32::NEG_INFINITY),
                        2 => *col[r] = f32::NAN,
                        3 => *col[r] = f32::INFINITY,
                        4 => col
                            .iter_mut()
                            .enumerate()
                            .for_each(|(i, v)| **v = if i % 2 == 0 { 1e30 } else { -1e30 }),
                        _ => {}
                    }
                }
                for lanes in 0..=width {
                    let mut logits = block.clone();
                    let mut out = vec![0.0f32; lanes * rows];
                    softmax_lanes(&mut logits, width, lanes, &mut out);
                    for b in 0..lanes {
                        let mut want = lane(&block, width, b);
                        softmax_in_place(&mut want);
                        for (r, (got, want)) in
                            out[b * rows..(b + 1) * rows].iter().zip(&want).enumerate()
                        {
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{rows} rows, width {width}, {lanes} lanes: lane {b} row {r}"
                            );
                        }
                    }
                }
            }
        }
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
