//! Runtime-dispatched int8 kernels over weights packed once.
//!
//! The int8 engines spend their time in three loops: the GEMM every dense
//! and convolution layer lowers to, the depthwise tap loop, and the
//! epilogue that requantizes each finished row of `i32` accumulators to
//! int8 codes. This module runs the first two with the host's integer
//! dot-product instruction — the serving-host counterpart of the CMSIS-NN
//! SIMD kernels TFLM calls on Cortex-M — over weights laid out once, when a
//! layer is quantized, and the third eight channels per pass
//! ([`Requantizer`], a [`RowEpilogue`]). Once the dot products ran in
//! lanes, the scalar epilogue cost as much per layer as a 1 M-MAC GEMM.
//!
//! # Levels
//!
//! [`level`] detects the host once ([`Level::is_supported`] behind a
//! `OnceLock`): `AvxVnni` (256-bit `vpdpbusd` for the GEMM, AVX2
//! `vpmaddwd` for the depthwise taps) or `Baseline` (portable Rust, `i16`
//! products, which the autovectorizer takes on SSE2). `Baseline` is the
//! oracle `AvxVnni` is tested against; there is no knob to pick a level,
//! but [`PackedI8::with_level`] and [`PackedDepthwise::with_level`] pack for
//! any supported one, which is how the tests cover both directly. The model
//! path packs once per layer, at the host's level, when the model is
//! quantized.
//!
//! There is one SIMD level on purpose. A 512-bit `vpdpbusd` kernel measured
//! no faster than the 256-bit one on these shapes, and a host without
//! AVX-VNNI runs `Baseline`, the kernel this module replaced. A new level
//! earns its place when a benchmarked host selects it and runs faster.
//!
//! # Why every level gives the same bits
//!
//! Integer addition modulo 2^32 is exact and associative, so any
//! accumulation order or lane width gives the same `i32` — as long as no
//! step saturates and every level wraps. `vpdpbusd` multiplies *unsigned*
//! bytes by signed ones, so the GEMM feeds it `u = x ^ 0x80 = x + 128` and
//! starts each column at `bias − (128 + a_zp)·Σ_p b[p][j]`: then
//! `init + Σ u·b = bias + Σ (x − a_zp)·b`. Two instructions look right and
//! are not:
//!
//! * `vpdpbusds` saturates the accumulator instead of wrapping;
//! * `vpmaddubsw` adds its two `u8·i8` products in *saturating* `i16`, and
//!   `2·255·128 = 65 280` does not fit.
//!
//! The depthwise kernel therefore widens both operands to `i16` and uses
//! `vpmaddwd`, whose pair sum is formed in `i32` (`|(x − zp)·w| ≤ 255·128`,
//! exact). Both levels, and [`crate::gemm::reference::matmul_i8`],
//! accumulate with wrapping `i32` adds: `vpdpbusd` wraps, so wrapping is
//! the only definition on which they all agree.
//!
//! The epilogue keeps its bits because no lane ever rounds: the product of
//! an `i32` accumulator and a mantissa below `2^31` is exact in 64 bits
//! (`vpmuldq`), the rounding term keeps it below `2^63`, and a right shift
//! of `right ≥ 32` leaves an `i32` that is the whole result, so the clamp,
//! the zero point and the byte pack are exact in `i32` lanes. Channels
//! outside that path — a left shift, `right < 32` — and the channels past
//! the last whole block of eight go through [`Requantizer::apply`], the
//! `Baseline` level's per-element oracle.
//!
//! # f32 levels
//!
//! The f32 direct kernels have no hand-written intrinsics. [`F32Level`]
//! compiles one kernel body twice: as the baseline x86-64 build (SSE2) and
//! inside an `#[target_feature(enable = "avx2")]` wrapper, which the
//! autovectorizer fills with 256-bit instructions. `fma` stays off: a fused
//! multiply-add rounds once where `acc + x * w` rounds twice, and the bits
//! would move. Lane width decides which output elements share a register,
//! never the order of one element's operations, so both instantiations give
//! the same bits. The f32 levels are independent of the int8 [`Level`]:
//! an AVX2 host without AVX-VNNI runs int8 at `Baseline` and f32 at
//! [`F32Level::Avx2`].
//!
//! This module is the only `unsafe` in the kernel layer. Each `unsafe`
//! block states the invariant it relies on in a `// SAFETY:` line; the
//! instruction-set half of each rests on a token (`Simd`, `Avx2`), which
//! only a support check can make.

use std::sync::OnceLock;

use token::{Avx2, Simd};

/// An integer dot-product instruction set the int8 kernels can run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Portable Rust: `i16` products widened into `i32` lanes.
    Baseline,
    /// AVX-VNNI 256-bit `vpdpbusd` GEMM; AVX2 `vpmaddwd` depthwise.
    AvxVnni,
}

impl Level {
    /// Every level, slowest first.
    pub const ALL: [Level; 2] = [Level::Baseline, Level::AvxVnni];

    /// Short stable name, as written to `results/kernels.json`.
    pub fn name(self) -> &'static str {
        match self {
            Level::Baseline => "baseline",
            Level::AvxVnni => "avx_vnni",
        }
    }

    /// Whether this CPU can run the level's kernels.
    pub fn is_supported(self) -> bool {
        match self {
            Level::Baseline => true,
            Level::AvxVnni => Simd::check().is_some(),
        }
    }

    /// The proof token for this level's SIMD kernels: `None` for
    /// `Baseline`, and for a level this CPU cannot run.
    fn simd(self) -> Option<Simd> {
        match self {
            Level::Baseline => None,
            Level::AvxVnni => Simd::check(),
        }
    }
}

/// The best level this host supports, detected on first use.
pub fn level() -> Level {
    static LEVEL: OnceLock<Level> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        Level::ALL.into_iter().rev().find(|l| l.is_supported()).unwrap_or(Level::Baseline)
    })
}

/// Every level this host supports, `Baseline` first.
pub fn supported_levels() -> Vec<Level> {
    Level::ALL.into_iter().filter(|l| l.is_supported()).collect()
}

mod token {
    /// Proof that this CPU runs the SIMD kernels (AVX2 and AVX-VNNI). The
    /// field is private to this module, so [`Simd::check`] is the only way
    /// to make one.
    #[cfg(target_arch = "x86_64")]
    #[derive(Debug, Clone, Copy)]
    pub struct Simd(());

    #[cfg(not(target_arch = "x86_64"))]
    #[derive(Debug, Clone, Copy)]
    pub enum Simd {}

    impl Simd {
        /// A token if this CPU runs the SIMD kernels.
        #[cfg(target_arch = "x86_64")]
        pub fn check() -> Option<Simd> {
            let ok = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("avxvnni");
            ok.then_some(Simd(()))
        }

        #[cfg(not(target_arch = "x86_64"))]
        pub fn check() -> Option<Simd> {
            None
        }
    }

    /// Proof that this CPU runs AVX2, for the f32 kernels. Like [`Simd`],
    /// only [`Avx2::check`] makes one.
    #[cfg(target_arch = "x86_64")]
    #[derive(Debug, Clone, Copy)]
    pub struct Avx2(());

    #[cfg(not(target_arch = "x86_64"))]
    #[derive(Debug, Clone, Copy)]
    pub enum Avx2 {}

    impl Avx2 {
        /// A token if this CPU runs AVX2.
        #[cfg(target_arch = "x86_64")]
        pub fn check() -> Option<Avx2> {
            is_x86_feature_detected!("avx2").then_some(Avx2(()))
        }

        #[cfg(not(target_arch = "x86_64"))]
        pub fn check() -> Option<Avx2> {
            None
        }
    }
}

/// A kernel body that [`F32Level::run`] compiles once per level.
///
/// An implementation marks `run` `#[inline(always)]`, and so does every
/// function its loops call, so that the whole body is inlined into each
/// level's wrapper and compiled with that level's instruction set. The body
/// is safe code: a level only changes how it is compiled.
pub trait F32Kernel {
    /// What the kernel returns.
    type Output;

    /// Runs the kernel.
    fn run(self) -> Self::Output;
}

/// A vector width the f32 kernels can be compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum F32Level {
    /// The baseline x86-64 build: 128-bit SSE2.
    Baseline,
    /// The same body under `target_feature(enable = "avx2")`, without FMA.
    Avx2,
}

impl F32Level {
    /// Every level, slowest first.
    pub const ALL: [F32Level; 2] = [F32Level::Baseline, F32Level::Avx2];

    /// Short stable name, as written to `results/kernels.json`.
    pub fn name(self) -> &'static str {
        match self {
            F32Level::Baseline => "baseline",
            F32Level::Avx2 => "avx2",
        }
    }

    /// Whether this CPU can run the level.
    pub fn is_supported(self) -> bool {
        match self {
            F32Level::Baseline => true,
            F32Level::Avx2 => Avx2::check().is_some(),
        }
    }

    /// Runs `kernel` compiled for this level.
    ///
    /// # Panics
    ///
    /// Panics if this CPU cannot run the level; [`f32_level`] and
    /// [`supported_f32_levels`] only name levels it can.
    #[inline]
    pub fn run<K: F32Kernel>(self, kernel: K) -> K::Output {
        match self {
            F32Level::Baseline => kernel.run(),
            F32Level::Avx2 => {
                run_avx2(Avx2::check().expect("this CPU does not support AVX2"), kernel)
            }
        }
    }
}

/// The best f32 level this host supports, detected on first use.
pub fn f32_level() -> F32Level {
    static LEVEL: OnceLock<F32Level> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        F32Level::ALL.into_iter().rev().find(|l| l.is_supported()).unwrap_or(F32Level::Baseline)
    })
}

/// Every f32 level this host supports, `Baseline` first.
pub fn supported_f32_levels() -> Vec<F32Level> {
    F32Level::ALL.into_iter().filter(|l| l.is_supported()).collect()
}

#[cfg(target_arch = "x86_64")]
fn run_avx2<K: F32Kernel>(_: Avx2, kernel: K) -> K::Output {
    // SAFETY: an `Avx2` token exists only once AVX2 was detected, and the
    // kernel body is safe code.
    unsafe { x86::run_avx2(kernel) }
}

#[cfg(not(target_arch = "x86_64"))]
fn run_avx2<K: F32Kernel>(avx2: Avx2, _: K) -> K::Output {
    match avx2 {}
}

/// Output columns (or depthwise channels) per SIMD panel: two 256-bit
/// registers of `i32`.
const PANEL: usize = 16;

/// How many elements of each [`I8Scratch`] buffer a kernel works in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchLen {
    /// `i32` accumulators of one padded output row.
    pub acc: usize,
    /// `u32` quads of one activation row, the SIMD GEMM's left operand.
    pub xq: usize,
    /// The depthwise kernel's padded input image, widened to `i16`.
    pub wide: usize,
    /// An im2col patch matrix, for a caller that lowers a convolution.
    pub patches: usize,
}

impl ScratchLen {
    /// Enough for both `self` and `other`.
    pub fn max(self, o: ScratchLen) -> ScratchLen {
        let (acc, xq) = (self.acc.max(o.acc), self.xq.max(o.xq));
        ScratchLen { acc, xq, wide: self.wide.max(o.wide), patches: self.patches.max(o.patches) }
    }
}

/// The int8 kernels' working memory, owned by the caller and sized once;
/// a kernel overwrites whatever it reads of it. Fields as in [`ScratchLen`].
#[derive(Debug, Clone, Default)]
#[allow(missing_docs)]
pub struct I8Scratch {
    pub acc: Vec<i32>,
    pub xq: Vec<u32>,
    pub wide: Vec<i16>,
    pub patches: Vec<i8>,
}

impl I8Scratch {
    /// Scratch of `len`.
    pub fn new(len: ScratchLen) -> I8Scratch {
        let (acc, xq) = (vec![0; len.acc], vec![0; len.xq]);
        I8Scratch { acc, xq, wide: vec![0; len.wide], patches: vec![0; len.patches] }
    }
}

/// The weights of one int8 GEMM (`k×n`, row-major, output channel
/// fastest), laid out once for one [`Level`] together with the per-column
/// start value of its accumulators.
#[derive(Debug, Clone)]
pub struct PackedI8 {
    k: usize,
    n: usize,
    a_zp: i8,
    b: PackedB,
    /// `Baseline`: the bias. SIMD: `bias − (128 + a_zp)·Σ_p b[p][j]`,
    /// wrapping, zero-padded to a whole number of panels.
    init: Vec<i32>,
}

#[derive(Debug, Clone)]
enum PackedB {
    /// `k×n` row-major, widened to `i16` (the `Baseline` operand).
    Rows(Vec<i16>),
    /// `[⌈k/4⌉][n_pad][4]` bytes — each column's four consecutive `k`
    /// taps side by side, zero-padded in `k` and in `n` to whole panels.
    Quads(Simd, Vec<i8>),
}

impl PackedI8 {
    /// Packs `b` (`k×n`) and `bias` (`n`) for activations with zero point
    /// `a_zp`, at the host's [`level`].
    ///
    /// # Panics
    ///
    /// Panics if `b` is shorter than `k * n` or `bias` is not `n` long.
    pub fn new(k: usize, n: usize, b: &[i8], bias: &[i32], a_zp: i8) -> PackedI8 {
        Self::pack(level().simd(), k, n, b, bias, a_zp)
    }

    /// As [`PackedI8::new`] at `level`, or `None` if this host cannot run
    /// it.
    ///
    /// # Panics
    ///
    /// As [`PackedI8::new`].
    pub fn with_level(
        level: Level,
        k: usize,
        n: usize,
        b: &[i8],
        bias: &[i32],
        a_zp: i8,
    ) -> Option<PackedI8> {
        level.is_supported().then(|| Self::pack(level.simd(), k, n, b, bias, a_zp))
    }

    /// Packs for the SIMD kernel given its token, for `Baseline` given
    /// `None`.
    fn pack(simd: Option<Simd>, k: usize, n: usize, b: &[i8], bias: &[i32], a_zp: i8) -> PackedI8 {
        let b = &b[..k * n];
        assert_eq!(bias.len(), n, "one bias per output column");
        let (b, init) = match simd {
            None => (PackedB::Rows(b.iter().map(|&v| i16::from(v)).collect()), bias.to_vec()),
            Some(simd) => {
                let n_pad = n.next_multiple_of(PANEL);
                let mut quads = vec![0i8; k.div_ceil(4) * n_pad * 4];
                let mut col_sums = vec![0i32; n];
                for (p, row) in b.chunks_exact(n.max(1)).enumerate().take(k) {
                    let base = (p / 4) * n_pad * 4 + p % 4;
                    for (j, (&w, sum)) in row.iter().zip(&mut col_sums).enumerate() {
                        quads[base + j * 4] = w;
                        *sum = sum.wrapping_add(i32::from(w));
                    }
                }
                let shift = 128 + i32::from(a_zp);
                let mut init: Vec<i32> = bias
                    .iter()
                    .zip(&col_sums)
                    .map(|(&bias, &sum)| bias.wrapping_sub(shift.wrapping_mul(sum)))
                    .collect();
                init.resize(n_pad, 0);
                (PackedB::Quads(simd, quads), init)
            }
        };
        PackedI8 { k, n, a_zp, b, init }
    }

    /// Output columns.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The scratch [`PackedI8::gemm`] works in.
    pub fn scratch_len(&self) -> ScratchLen {
        let xq = if matches!(self.b, PackedB::Quads(..)) { self.k.div_ceil(4) } else { 0 };
        ScratchLen { acc: self.init.len(), xq, ..ScratchLen::default() }
    }

    /// Fused int8 GEMM against the packed weights: `acc[i][j] = bias[j] +
    /// Σ_p (a[i·k + p] − a_zp)·b[p][j]`, wrapping, then the epilogue
    /// retires each row `acc[i]` into `out[i·n..(i + 1)·n]`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is shorter than `m * k`, `out` is not `m * n` long, or
    /// `scratch` is smaller than [`PackedI8::scratch_len`].
    pub fn gemm(
        &self,
        m: usize,
        a: &[i8],
        epilogue: impl RowEpilogue,
        scratch: &mut I8Scratch,
        out: &mut [i8],
    ) {
        let (k, n) = (self.k, self.n);
        assert!(a.len() >= m * k, "a holds m rows of k codes");
        assert_eq!(out.len(), m * n, "out holds m rows of n codes");
        if m == 0 || n == 0 {
            return;
        }
        let acc = &mut scratch.acc[..self.init.len()];
        let retire = |acc: &[i32], orow: &mut [i8]| epilogue.retire(&acc[..n], orow);
        match &self.b {
            PackedB::Rows(b16) => {
                let zp = i16::from(self.a_zp);
                for (i, orow) in out.chunks_exact_mut(n).enumerate() {
                    acc.copy_from_slice(&self.init);
                    // `x − zp` ∈ [−255, 255] and `|(x − zp)·w| ≤ 255·128`:
                    // the product is SSE2's native 16-bit multiply
                    for (&x, brow) in a[i * k..i * k + k].iter().zip(b16.chunks_exact(n)) {
                        let x = i16::from(x) - zp;
                        for (o, &bv) in acc.iter_mut().zip(brow) {
                            *o = o.wrapping_add(i32::from(x * bv));
                        }
                    }
                    retire(acc, orow);
                }
            }
            PackedB::Quads(simd, quads) => {
                let xq = &mut scratch.xq[..k.div_ceil(4)];
                for (i, orow) in out.chunks_exact_mut(n).enumerate() {
                    to_quads(&a[i * k..i * k + k], xq);
                    dot_row(*simd, xq, quads, &self.init, acc);
                    retire(acc, orow);
                }
            }
        }
    }
}

/// What an int8 kernel does with one row of finished accumulators: the
/// requantization epilogue, a whole row per call.
///
/// Every `Fn(channel, acc) -> code` is one, applied element by element;
/// a `&`[`Requantizer`] retires eight channels per pass at a SIMD level.
pub trait RowEpilogue {
    /// Writes the code of `acc[j]`, channel `j`'s accumulator, to `out[j]`
    /// for every `j`. `acc` and `out` have the same length.
    fn retire(&self, acc: &[i32], out: &mut [i8]);
}

impl<F: Fn(usize, i32) -> i8> RowEpilogue for F {
    #[inline]
    fn retire(&self, acc: &[i32], out: &mut [i8]) {
        for (j, (o, &v)) in out.iter_mut().zip(acc).enumerate() {
            *o = self(j, v);
        }
    }
}

/// A layer's requantization to the output int8 domain, resolved once when
/// the model is quantized: per channel, a fixed-point multiplier
/// `mantissa · 2^(shift − 31)` as the shift and rounding terms it implies,
/// plus the output zero point and the activation's clamp bounds.
///
/// [`Requantizer::apply`] is `ei_quant`'s `FixedMultiplier::apply` (the
/// `i64` product, rounded half away from zero) followed by the zero point
/// and the clamp, bit for bit — except that the zero-point add saturates:
/// `FixedMultiplier::apply` clamps a huge product to the `i32` range, and
/// adding the zero point to that would overflow. It is the oracle the row
/// kernel is tested against; its [`RowEpilogue`] impl says why the lanes
/// give the same bits.
#[derive(Debug, Clone)]
pub struct Requantizer {
    /// The row kernel's token; `None` at `Baseline`.
    simd: Option<Simd>,
    channels: Vec<ChannelScale>,
    /// The channels eight at a time in the row kernel's layout, for every
    /// whole block of eight; empty at `Baseline`.
    blocks: Vec<LaneBlock>,
    /// Channels inside `blocks` that the lanes cannot take exactly: their
    /// lanes hold zeros, and `retire` rewrites them with `apply`.
    fixups: Vec<usize>,
    zero_point: i32,
    /// The clamp bounds minus the zero point: clamping `v` to them and
    /// then adding the zero point is clamping `v + zp`, with no overflow.
    lo: i32,
    hi: i32,
}

/// One channel's fixed-point multiplier, pre-decoded.
#[derive(Debug, Clone, Copy)]
struct ChannelScale {
    /// The mantissa times `2^left`, wrapping: multiplying by it is
    /// `FixedMultiplier::apply`'s (wrapping) `prod << left`, since wrapping
    /// multiplication is associative.
    mantissa: i64,
    right: u32,
    /// Added before the right shift to a non-negative product (and
    /// `round_neg` to a negative one): round half away from zero.
    round: i64,
    round_neg: i64,
}

/// Eight channels' multipliers as the row kernel loads them. `vpmuldq`
/// multiplies the low `i32` of each 64-bit lane, so a block's channels are
/// split into the even ones (lanes of the first register) and the odd ones.
#[derive(Debug, Clone, Copy, Default)]
struct LaneBlock {
    /// Mantissas of channels 0, 2, 4, 6, then 1, 3, 5, 7.
    mantissa: [i64; 8],
    /// `2^(right − 1)`, in the order of `mantissa`.
    round: [i64; 8],
    /// `right − 32`, in channel order.
    shift: [i32; 8],
}

impl Requantizer {
    /// Channels per pass of the row kernel: one 256-bit register of `i32`.
    const LANES: usize = 8;

    /// The requantization with one multiplier per channel, each as
    /// `(mantissa, shift)` for `mantissa · 2^(shift − 31)` (the fields of
    /// `ei_quant`'s `FixedMultiplier`), then output zero point
    /// `zero_point` and the clamp to `bounds`, for `level`; `None` if this
    /// host cannot run `level`.
    pub fn with_level(
        level: Level,
        multipliers: impl IntoIterator<Item = (i32, i32)>,
        zero_point: i8,
        bounds: (i8, i8),
    ) -> Option<Requantizer> {
        if !level.is_supported() {
            return None;
        }
        let channels: Vec<ChannelScale> = multipliers
            .into_iter()
            .map(|(mantissa, shift)| {
                if mantissa == 0 {
                    // every product is 0, whatever the shift
                    return ChannelScale { mantissa: 0, right: 0, round: 0, round_neg: 0 };
                }
                // `apply` shifts left by `shift - 31` when that is positive
                // (no rounding), else right by `31 - shift` with rounding
                let total = 31 - shift;
                let left = (-total).max(0) as u32;
                let right = total.max(0) as u32;
                let round = if right > 0 { 1i64 << (right - 1) } else { 0 };
                ChannelScale {
                    mantissa: i64::from(mantissa).wrapping_mul(1i64 << left),
                    right,
                    round,
                    round_neg: if right > 0 { round - 1 } else { 0 },
                }
            })
            .collect();
        let simd = level.simd();
        let (mut blocks, mut fixups) = (Vec::new(), Vec::new());
        if simd.is_some() {
            for (b, chunk) in channels.chunks_exact(Self::LANES).enumerate() {
                let mut block = LaneBlock::default();
                for (i, c) in chunk.iter().enumerate() {
                    // even channels fill lanes 0..4, odd ones 4..8
                    let at = i / 2 + 4 * (i % 2);
                    if (32..=63).contains(&c.right) {
                        // `right >= 32` means no left shift: the mantissa
                        // is the `i32` `vpmuldq` reads
                        block.mantissa[at] = c.mantissa;
                        block.round[at] = c.round;
                        block.shift[i] = c.right as i32 - 32;
                    } else {
                        fixups.push(b * Self::LANES + i);
                    }
                }
                blocks.push(block);
            }
        }
        let (lo, hi) = (i32::from(bounds.0), i32::from(bounds.1));
        let zp = i32::from(zero_point);
        Some(Requantizer {
            simd,
            channels,
            blocks,
            fixups,
            zero_point: zp,
            lo: lo - zp,
            hi: hi - zp,
        })
    }

    /// Requantizes channel `ch`'s accumulator.
    ///
    /// # Panics
    ///
    /// Panics if `ch` is not a channel.
    #[inline]
    pub fn apply(&self, ch: usize, acc: i32) -> i8 {
        self.requantize(self.channels[ch], acc)
    }

    /// [`Requantizer::apply`] given the channel's scale.
    #[inline]
    fn requantize(&self, c: ChannelScale, acc: i32) -> i8 {
        let prod = i64::from(acc).wrapping_mul(c.mantissa);
        let round = if prod < 0 { c.round_neg } else { c.round };
        let v = ((prod + round) >> c.right).clamp(self.lo.into(), self.hi.into());
        (v + i64::from(self.zero_point)) as i8
    }
}

impl RowEpilogue for &Requantizer {
    /// Requantizes one row, `acc[j]` being channel `j`'s accumulator.
    ///
    /// At `Baseline` this is [`Requantizer::apply`] element by element. At
    /// a SIMD level each whole block of eight channels takes one pass, and
    /// gives `apply`'s bits: `vpmuldq` forms the exact `i64` product of the
    /// accumulator and the mantissa (`|acc·m| < 2^62`); adding `round`,
    /// less one where the product is negative, is `apply`'s rounding add
    /// (`< 2^63`, no overflow); an arithmetic shift right by `right ≥ 32`
    /// is the high `i32` (`>> 32`) shifted by `right − 32` with `vpsravd`,
    /// and that `i32` is the whole result, so the clamp, zero point and
    /// byte pack in `i32` lanes lose nothing. A channel with a left shift
    /// (a dead-ReLU layer's huge multiplier) or `right < 32` does not fit
    /// that path: its lanes compute 0 and `apply` rewrites it afterwards,
    /// as it does the channels past the last whole block.
    ///
    /// # Panics
    ///
    /// Panics if `acc` and `out` differ in length or `acc` is longer than
    /// the channels.
    fn retire(&self, acc: &[i32], out: &mut [i8]) {
        assert_eq!(acc.len(), out.len(), "one code per accumulator");
        assert!(acc.len() <= self.channels.len(), "one accumulator per channel");
        let whole = (acc.len() / Requantizer::LANES).min(self.blocks.len());
        let done = whole * Requantizer::LANES;
        if let Some(simd) = self.simd {
            let bounds = [self.zero_point, self.lo, self.hi];
            requantize_row(simd, &self.blocks[..whole], bounds, acc, out);
            for &ch in self.fixups.iter().take_while(|&&ch| ch < done) {
                out[ch] = self.apply(ch, acc[ch]);
            }
        }
        let rest = out[done..].iter_mut().zip(&acc[done..]).zip(&self.channels[done..]);
        for ((o, &v), &c) in rest {
            *o = self.requantize(c, v);
        }
    }
}

/// The row kernel over `blocks.len()` whole blocks of eight channels.
#[cfg(target_arch = "x86_64")]
fn requantize_row(_: Simd, blocks: &[LaneBlock], bounds: [i32; 3], acc: &[i32], out: &mut [i8]) {
    let len = blocks.len() * Requantizer::LANES;
    assert!(acc.len() >= len && out.len() >= len, "a whole block per pass");
    // SAFETY: a `Simd` token exists only once AVX2 was detected, and the
    // assert above is the kernel's size contract.
    unsafe { x86::requantize_avx2(blocks, bounds, acc, out) }
}

#[cfg(not(target_arch = "x86_64"))]
fn requantize_row(simd: Simd, _: &[LaneBlock], _: [i32; 3], _: &[i32], _: &mut [i8]) {
    match simd {}
}

/// One activation row as little-endian `u8` quads, `u = x ^ 0x80`; a short
/// last quad is zero-filled (its weights are zero).
fn to_quads(row: &[i8], xq: &mut [u32]) {
    let mut chunks = row.chunks_exact(4);
    for (q, c) in xq.iter_mut().zip(&mut chunks) {
        *q = u32::from_le_bytes([c[0] as u8, c[1] as u8, c[2] as u8, c[3] as u8]) ^ 0x8080_8080;
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut bytes = [0u8; 4];
        for (b, &x) in bytes.iter_mut().zip(tail) {
            *b = x as u8 ^ 0x80;
        }
        xq[xq.len() - 1] = u32::from_le_bytes(bytes);
    }
}

/// `acc = init + Σ_q dot(xq[q], quads[q])` over every padded column.
#[cfg(target_arch = "x86_64")]
fn dot_row(_: Simd, xq: &[u32], quads: &[i8], init: &[i32], acc: &mut [i32]) {
    let n_pad = init.len();
    assert!(
        n_pad.is_multiple_of(PANEL) && acc.len() == n_pad && quads.len() == xq.len() * n_pad * 4
    );
    // SAFETY: a `Simd` token exists only once AVX2 and AVX-VNNI were
    // detected, and the assert above is the kernel's size contract.
    unsafe { x86::dot_row_avx_vnni(xq, quads, init, acc) }
}

#[cfg(not(target_arch = "x86_64"))]
fn dot_row(simd: Simd, _: &[u32], _: &[i8], _: &[i32], _: &mut [i32]) {
    match simd {}
}

/// Geometry of one depthwise convolution, in the terms its kernel needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthwiseShape {
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Channels (in and out).
    pub c: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride in both axes.
    pub stride: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
    /// Padding rows above the input.
    pub pad_top: usize,
    /// Padding columns left of the input.
    pub pad_left: usize,
}

/// The weights of one int8 depthwise convolution (`(kh, kw, c)`, channel
/// fastest) and its bias, laid out once for one [`Level`] and one
/// [`DepthwiseShape`], with the tap offsets into the padded input image
/// that shape implies. There are two kernels: `Baseline`'s portable tap
/// loop and an AVX2 `vpmaddwd` one, which the `AvxVnni` level runs.
#[derive(Debug, Clone)]
pub struct PackedDepthwise {
    /// The SIMD kernel's token; `None` at `Baseline`.
    simd: Option<Simd>,
    shape: DepthwiseShape,
    /// Rows and columns of the padded image every tap lands inside.
    hp: usize,
    wp: usize,
    /// Each tap's offset from an output pixel's origin in the padded image.
    offsets: Vec<usize>,
    /// `offsets` two at a time, for the SIMD kernel; an odd last tap is
    /// paired with itself against zero weights.
    pairs: Vec<(usize, usize)>,
    c: usize,
    /// Channel stride of the padded input: `c` at `Baseline`, `c` rounded
    /// up to whole panels at the SIMD levels.
    c_pad: usize,
    /// `Baseline`: `[taps][c]`. SIMD: `[⌈taps/2⌉][c_pad/16][32]` tap pairs
    /// in the lane order `vpunpck{l,h}wd` gives the input (see `pack`).
    w: Vec<i16>,
    /// `c_pad` long, zero-padded.
    bias: Vec<i32>,
}

impl PackedDepthwise {
    /// Packs `w` (`kernel_h · kernel_w × c`) and `bias` (`c`) of a
    /// depthwise convolution of `shape` for `level`, or `None` if this host
    /// cannot run it.
    ///
    /// # Panics
    ///
    /// Panics if `w` is shorter than `kernel_h * kernel_w * c` or `bias` is
    /// not `c` long.
    pub fn with_level(
        level: Level,
        shape: DepthwiseShape,
        w: &[i8],
        bias: &[i32],
    ) -> Option<PackedDepthwise> {
        level.is_supported().then(|| Self::pack(level.simd(), shape, w, bias))
    }

    fn pack(simd: Option<Simd>, s: DepthwiseShape, w: &[i8], bias: &[i32]) -> PackedDepthwise {
        let (taps, c) = (s.kernel_h * s.kernel_w, s.c);
        let w = &w[..taps * c];
        assert_eq!(bias.len(), c, "one bias per channel");
        let c_pad = if simd.is_some() { c.next_multiple_of(PANEL) } else { c };
        let packed = if simd.is_some() {
            let blocks = c_pad / PANEL;
            let mut packed = vec![0i16; taps.div_ceil(2) * blocks * 32];
            for (t, row) in w.chunks_exact(c.max(1)).enumerate().take(taps) {
                for (ch, &v) in row.iter().enumerate() {
                    // within a 16-channel block, channel `8·lane + 4·half + i`
                    // sits at `16·half + 8·lane + 2·i` (+1 for the odd tap)
                    let (block, r) = (ch / PANEL, ch % PANEL);
                    let (lane, half, i) = (r / 8, (r / 4) % 2, r % 4);
                    let at = ((t / 2) * blocks + block) * 32 + 16 * half + 8 * lane + 2 * i + t % 2;
                    packed[at] = i16::from(v);
                }
            }
            packed
        } else {
            w.iter().map(|&v| i16::from(v)).collect()
        };
        let mut bias = bias.to_vec();
        bias.resize(c_pad, 0);
        // every tap of every output pixel lands inside this padded image
        let (hp, wp) = if s.out_h == 0 || s.out_w == 0 {
            (0, 0)
        } else {
            ((s.out_h - 1) * s.stride + s.kernel_h, (s.out_w - 1) * s.stride + s.kernel_w)
        };
        let offsets: Vec<usize> =
            (0..taps).map(|t| ((t / s.kernel_w) * wp + t % s.kernel_w) * c_pad).collect();
        let pairs = offsets.chunks(2).map(|p| (p[0], p.get(1).copied().unwrap_or(p[0]))).collect();
        PackedDepthwise { simd, shape: s, hp, wp, offsets, pairs, c, c_pad, w: packed, bias }
    }

    /// The scratch [`PackedDepthwise::run`] works in.
    pub fn scratch_len(&self) -> ScratchLen {
        let acc = self.shape.out_w * self.c_pad;
        ScratchLen { acc, wide: self.hp * self.wp * self.c_pad, ..ScratchLen::default() }
    }

    /// Depthwise convolution of `input` (`in_h × in_w × c` codes at zero
    /// point `in_zp`, in the packed shape): per output pixel and channel,
    /// `bias + Σ_taps (x − in_zp)·w`, wrapping; the epilogue retires each
    /// output pixel's `c` accumulators. Out-of-bounds taps contribute zero,
    /// as a zero-point pad would.
    ///
    /// # Panics
    ///
    /// Panics if the buffers do not match the packed shape, or `scratch` is
    /// smaller than [`PackedDepthwise::scratch_len`].
    pub fn run(
        &self,
        input: &[i8],
        in_zp: i8,
        epilogue: impl RowEpilogue,
        scratch: &mut I8Scratch,
        out: &mut [i8],
    ) {
        let (s, c, cp, wp) = (self.shape, self.c, self.c_pad, self.wp);
        assert_eq!(input.len(), s.in_h * s.in_w * c, "input is in_h × in_w × c");
        assert_eq!(out.len(), s.out_h * s.out_w * c, "out is out_h × out_w × c");
        if out.is_empty() {
            return;
        }
        let xs = &mut scratch.wide[..self.hp * wp * cp];
        pad_widened(input, in_zp, s, wp, cp, xs);
        let xs = &*xs;
        let step = s.stride * cp;
        let acc = &mut scratch.acc[..s.out_w * cp];
        for (oy, orow) in out.chunks_exact_mut(s.out_w * c).enumerate() {
            let origin = oy * s.stride * wp * cp;
            match self.simd {
                None => {
                    for (ox, px) in acc.chunks_exact_mut(cp).enumerate() {
                        px.copy_from_slice(&self.bias);
                        for (&off, wt) in self.offsets.iter().zip(self.w.chunks_exact(c)) {
                            let at = origin + ox * step + off;
                            for (a, (&x, &wv)) in px.iter_mut().zip(xs[at..at + c].iter().zip(wt)) {
                                *a = a.wrapping_add(i32::from(x * wv));
                            }
                        }
                    }
                }
                Some(simd) => dw_row(simd, xs, origin, step, &self.pairs, &self.w, &self.bias, acc),
            }
            for (px, opx) in acc.chunks_exact(cp).zip(orow.chunks_exact_mut(c)) {
                epilogue.retire(&px[..c], opx);
            }
        }
    }
}

/// Writes `input` as `x − zp` in `i16` at `(pad_top, pad_left)` of the
/// `hp × wp × cp` image `xs`, and zero everywhere else (rows or columns
/// past the image are cut).
fn pad_widened(input: &[i8], zp: i8, s: DepthwiseShape, wp: usize, cp: usize, xs: &mut [i16]) {
    let zp = i16::from(zp);
    let hp = xs.len() / (wp * cp);
    xs.fill(0);
    let cols = s.in_w.min(wp.saturating_sub(s.pad_left));
    for (iy, row) in input.chunks_exact((s.in_w * s.c).max(1)).enumerate() {
        let y = iy + s.pad_top;
        if y >= hp {
            break;
        }
        for (ix, px) in row.chunks_exact(s.c).take(cols).enumerate() {
            let at = (y * wp + ix + s.pad_left) * cp;
            for (d, &x) in xs[at..at + s.c].iter_mut().zip(px) {
                *d = i16::from(x) - zp;
            }
        }
    }
}

/// One output row of the SIMD depthwise kernel into `acc` (`ow × cp`).
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn dw_row(
    _: Simd,
    xs: &[i16],
    origin: usize,
    step: usize,
    pairs: &[(usize, usize)],
    w: &[i16],
    bias: &[i32],
    acc: &mut [i32],
) {
    let cp = bias.len();
    let ow = acc.len() / cp.max(1);
    let reach = pairs.iter().map(|&(t0, t1)| t0.max(t1)).max().unwrap_or(0) + cp;
    assert!(cp.is_multiple_of(PANEL) && acc.len() == ow * cp && w.len() == pairs.len() * cp * 2);
    assert!(ow == 0 || origin + (ow - 1) * step + reach <= xs.len(), "taps stay in the image");
    // SAFETY: a `Simd` token exists only once AVX2 was detected, and the
    // asserts above are the kernel's size contract.
    unsafe { x86::dw_row_avx2(xs, origin, step, pairs, w, bias, acc) }
}

#[cfg(not(target_arch = "x86_64"))]
#[allow(clippy::too_many_arguments)]
fn dw_row(
    simd: Simd,
    _: &[i16],
    _: usize,
    _: usize,
    _: &[(usize, usize)],
    _: &[i16],
    _: &[i32],
    _: &mut [i32],
) {
    match simd {}
}

#[cfg(target_arch = "x86_64")]
#[deny(unsafe_op_in_unsafe_fn)]
mod x86 {
    use super::{F32Kernel, LaneBlock, PANEL};
    use std::arch::x86_64::*;

    /// The row kernel: eight channels per pass, `vpmuldq` products of the
    /// even and the odd channels, rounded and shifted in 64-bit lanes, then
    /// clamped and packed in `i32` lanes (see `Requantizer::retire`).
    /// `[zp, lo, hi]` are the zero point and the clamp bounds minus it.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2; `acc` and `out` are at least `8 ·
    /// blocks.len()` long.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn requantize_avx2(
        blocks: &[LaneBlock],
        [zp, lo, hi]: [i32; 3],
        acc: &[i32],
        out: &mut [i8],
    ) {
        let zero = _mm256_setzero_si256();
        let (zp, lo, hi) = (_mm256_set1_epi32(zp), _mm256_set1_epi32(lo), _mm256_set1_epi32(hi));
        // byte 0 of each `i32` into the low four bytes of its 128-bit lane,
        // then those two dwords side by side
        #[rustfmt::skip]
        let pick = _mm256_setr_epi8(
            0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
            0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
        );
        let gather = _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0);
        for (i, b) in blocks.iter().enumerate() {
            // SAFETY: `8·i + 8 <= 8·blocks.len() <= acc.len()`, and each
            // load from `b` stays inside its array.
            let (a, m_even, m_odd, r_even, r_odd, shift) = unsafe {
                (
                    _mm256_loadu_si256(acc.as_ptr().add(8 * i).cast()),
                    _mm256_loadu_si256(b.mantissa.as_ptr().cast()),
                    _mm256_loadu_si256(b.mantissa.as_ptr().add(4).cast()),
                    _mm256_loadu_si256(b.round.as_ptr().cast()),
                    _mm256_loadu_si256(b.round.as_ptr().add(4).cast()),
                    _mm256_loadu_si256(b.shift.as_ptr().cast()),
                )
            };
            // exact `i64` products: channels 0, 2, 4, 6 from the low dwords,
            // 1, 3, 5, 7 from the high ones moved down
            let even = _mm256_mul_epi32(a, m_even);
            let odd = _mm256_mul_epi32(_mm256_srli_epi64::<32>(a), m_odd);
            // round half away from zero: `+ round`, `− 1` if negative
            let even =
                _mm256_add_epi64(_mm256_add_epi64(even, r_even), _mm256_cmpgt_epi64(zero, even));
            let odd = _mm256_add_epi64(_mm256_add_epi64(odd, r_odd), _mm256_cmpgt_epi64(zero, odd));
            // the high dwords (`>> 32`) in channel order, then `>> right − 32`
            let high = _mm256_blend_epi32::<0b1010_1010>(_mm256_srli_epi64::<32>(even), odd);
            let v = _mm256_srav_epi32(high, shift);
            let v = _mm256_add_epi32(_mm256_min_epi32(_mm256_max_epi32(v, lo), hi), zp);
            let bytes = _mm256_permutevar8x32_epi32(_mm256_shuffle_epi8(v, pick), gather);
            // SAFETY: `8·i + 8 <= out.len()`, as for `acc`.
            unsafe {
                _mm_storel_epi64(out.as_mut_ptr().add(8 * i).cast(), _mm256_castsi256_si128(bytes))
            };
        }
    }

    /// `kernel`'s body, inlined here and compiled for AVX2 (no FMA).
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn run_avx2<K: F32Kernel>(kernel: K) -> K::Output {
        kernel.run()
    }

    /// 256-bit `vpdpbusd`: two registers per panel, four panels at a time.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2 and AVX-VNNI; `init.len() == acc.len()` is a
    /// multiple of [`PANEL`] and `quads.len() == xq.len() * init.len() * 4`.
    #[target_feature(enable = "avx2,avxvnni")]
    pub(super) unsafe fn dot_row_avx_vnni(xq: &[u32], quads: &[i8], init: &[i32], acc: &mut [i32]) {
        let panels = init.len() / PANEL;
        let mut p = 0;
        while p < panels {
            // SAFETY: the caller's contract, and `p + width <= panels`.
            unsafe {
                if p + 4 <= panels {
                    avx_vnni::<4>(xq, quads, init, acc, p);
                    p += 4;
                } else {
                    avx_vnni::<1>(xq, quads, init, acc, p);
                    p += 1;
                }
            }
        }
    }

    /// # Safety
    ///
    /// As [`dot_row_avx_vnni`], and `p0 + P <= init.len() / PANEL`.
    #[target_feature(enable = "avx2,avxvnni")]
    unsafe fn avx_vnni<const P: usize>(
        xq: &[u32],
        quads: &[i8],
        init: &[i32],
        acc: &mut [i32],
        p0: usize,
    ) {
        let n_pad = init.len();
        let mut sums = [[_mm256_setzero_si256(); 2]; P];
        for (i, panel) in sums.iter_mut().enumerate() {
            for (h, s) in panel.iter_mut().enumerate() {
                // SAFETY: `(p0 + i)·PANEL + 8·(h + 1) <= n_pad == init.len()`.
                *s = unsafe {
                    _mm256_loadu_si256(init.as_ptr().add((p0 + i) * PANEL + 8 * h).cast())
                };
            }
        }
        for (q, &x) in xq.iter().enumerate() {
            let x = _mm256_set1_epi32(x as i32);
            let base = (q * n_pad + p0 * PANEL) * 4;
            for (i, panel) in sums.iter_mut().enumerate() {
                for (h, s) in panel.iter_mut().enumerate() {
                    let at = base + i * 64 + h * 32;
                    // SAFETY: `at + 32 <= (q + 1)·n_pad·4 <= quads.len()`.
                    let w = unsafe { _mm256_loadu_si256(quads.as_ptr().add(at).cast()) };
                    *s = _mm256_dpbusd_avx_epi32(*s, x, w);
                }
            }
        }
        for (i, panel) in sums.iter().enumerate() {
            for (h, s) in panel.iter().enumerate() {
                let at = (p0 + i) * PANEL + 8 * h;
                // SAFETY: as for the `init` loads, since `acc.len() == n_pad`.
                unsafe { _mm256_storeu_si256(acc.as_mut_ptr().add(at).cast(), *s) };
            }
        }
    }

    /// The SIMD depthwise kernel: `vpmaddwd` over tap pairs
    /// of the padded `i16` image, 16 channels per step.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2; `bias.len()` is a multiple of [`PANEL`],
    /// `acc.len()` a multiple of it, `w.len() == pairs.len() * bias.len() *
    /// 2`, and for each of the `acc.len() / bias.len()` pixels `px`,
    /// `origin + px·step + max(pair offset) + bias.len() <= xs.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dw_row_avx2(
        xs: &[i16],
        origin: usize,
        step: usize,
        pairs: &[(usize, usize)],
        w: &[i16],
        bias: &[i32],
        acc: &mut [i32],
    ) {
        let cp = bias.len();
        let blocks = cp / PANEL;
        for (px, out) in acc.chunks_exact_mut(cp).enumerate() {
            let o = origin + px * step;
            for cb in 0..blocks {
                let (mut lo, mut hi) = (_mm256_setzero_si256(), _mm256_setzero_si256());
                for (pi, &(t0, t1)) in pairs.iter().enumerate() {
                    let wb = (pi * blocks + cb) * 32;
                    // SAFETY: the pixel bound in the contract covers both
                    // taps' 16 channels, and `wb + 32 <= w.len()`.
                    let (r0, r1, w0, w1) = unsafe {
                        (
                            _mm256_loadu_si256(xs.as_ptr().add(o + t0 + cb * PANEL).cast()),
                            _mm256_loadu_si256(xs.as_ptr().add(o + t1 + cb * PANEL).cast()),
                            _mm256_loadu_si256(w.as_ptr().add(wb).cast()),
                            _mm256_loadu_si256(w.as_ptr().add(wb + 16).cast()),
                        )
                    };
                    // per 128-bit lane: channels 0..4 (lo) and 4..8 (hi) of
                    // the lane's eight, each as a (t0, t1) pair
                    lo = _mm256_add_epi32(lo, _mm256_madd_epi16(_mm256_unpacklo_epi16(r0, r1), w0));
                    hi = _mm256_add_epi32(hi, _mm256_madd_epi16(_mm256_unpackhi_epi16(r0, r1), w1));
                }
                let first = _mm256_permute2x128_si256::<0x20>(lo, hi);
                let second = _mm256_permute2x128_si256::<0x31>(lo, hi);
                let at = cb * PANEL;
                // SAFETY: `at + 16 <= cp == bias.len() == out.len()`.
                unsafe {
                    let b0 = _mm256_loadu_si256(bias.as_ptr().add(at).cast());
                    let b1 = _mm256_loadu_si256(bias.as_ptr().add(at + 8).cast());
                    let dst = out.as_mut_ptr().add(at);
                    _mm256_storeu_si256(dst.cast(), _mm256_add_epi32(b0, first));
                    _mm256_storeu_si256(dst.add(8).cast(), _mm256_add_epi32(b1, second));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::reference;

    fn data_i8(n: usize, seed: u64) -> Vec<i8> {
        (0..n)
            .map(|i| {
                ((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(seed) >> 32) as i8
            })
            .collect()
    }

    /// Runs `kernel` four times with epilogues that each keep one byte of
    /// the accumulator, and reassembles all 32 bits.
    fn accumulators(
        len: usize,
        mut kernel: impl FnMut(&dyn Fn(usize, i32) -> i8, &mut [i8]),
    ) -> Vec<i32> {
        let mut acc = vec![0i32; len];
        for byte in (0..4).rev() {
            let mut out = vec![0i8; len];
            kernel(&|_, v| (v >> (8 * byte)) as i8, &mut out);
            for (a, b) in acc.iter_mut().zip(out) {
                *a = (*a << 8) | i32::from(b as u8);
            }
        }
        acc
    }

    /// `acc[i] += x[i] * w[i]` five times over, in a fixed order.
    struct Madd<'a>(&'a [f32], &'a [f32]);

    impl F32Kernel for Madd<'_> {
        type Output = Vec<f32>;
        #[inline(always)]
        fn run(self) -> Vec<f32> {
            let mut acc = vec![0.1f32; self.0.len()];
            for _ in 0..5 {
                for ((a, &x), &w) in acc.iter_mut().zip(self.0).zip(self.1) {
                    *a += x * w;
                }
            }
            acc
        }
    }

    #[test]
    fn every_f32_level_runs_the_body_with_the_same_bits() {
        assert_eq!(supported_f32_levels()[0], F32Level::Baseline);
        assert!(supported_f32_levels().contains(&f32_level()));
        let x: Vec<f32> = (0..37).map(|i| (i as f32 * 0.37).sin()).collect();
        let w: Vec<f32> = (0..37).map(|i| (i as f32 * 1.3).cos() * 3.0).collect();
        let bits = |v: Vec<f32>| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let want = bits(Madd(&x, &w).run());
        for level in supported_f32_levels() {
            assert_eq!(bits(level.run(Madd(&x, &w))), want, "{level:?}");
        }
    }

    fn gemm_acc(p: &PackedI8, m: usize, a: &[i8]) -> Vec<i32> {
        let mut scratch = I8Scratch::new(p.scratch_len());
        accumulators(m * p.n(), |epi, out| p.gemm(m, a, epi, &mut scratch, out))
    }

    #[test]
    fn every_level_matches_the_reference_on_odd_shapes() {
        // k % 4 != 0, n % 16 != 0, m == 1, both zero-point edges and a
        // -128 weight column
        for level in supported_levels() {
            for a_zp in [-128i8, -7, 127] {
                for &(m, k, n) in &[(1, 1, 1), (1, 7, 5), (3, 9, 17), (5, 40, 64), (2, 130, 33)] {
                    let a = data_i8(m * k, 1);
                    let mut b = data_i8(k * n, 2);
                    for row in b.chunks_mut(n) {
                        row[n - 1] = i8::MIN;
                    }
                    let bias: Vec<i32> = (0..n as i32).map(|j| j * 97 - 1_000).collect();
                    let want = reference::matmul_i8(m, k, n, &a, a_zp, &b, &bias);
                    let p = PackedI8::with_level(level, k, n, &b, &bias, a_zp).unwrap();
                    assert_eq!(gemm_acc(&p, m, &a), want, "{level:?} zp {a_zp} ({m},{k},{n})");
                }
            }
        }
    }

    #[test]
    fn accumulation_wraps_at_every_level() {
        // a bias at either i32 edge plus non-zero products must wrap, not
        // panic (debug) or saturate (vpdpbusds)
        let (m, k, n) = (2, 5, 3);
        let a = vec![127i8; m * k];
        let b = [127i8, -128, 1].repeat(k);
        for bias in [[i32::MAX; 3], [i32::MIN; 3]] {
            let want = reference::matmul_i8(m, k, n, &a, -128, &b, &bias);
            assert_eq!(want[0], bias[0].wrapping_add(5 * 255 * 127));
            for level in supported_levels() {
                let p = PackedI8::with_level(level, k, n, &b, &bias, -128).unwrap();
                assert_eq!(gemm_acc(&p, m, &a), want, "{level:?} bias {}", bias[0]);
            }
        }
    }

    #[test]
    fn requantize_rows_match_apply_at_every_level() {
        // (mantissa, shift) with `right = 31 − shift`: the lanes' edges, a
        // zero mantissa, and the two kinds `apply` rewrites after the lanes
        let kinds = [
            (1 << 30, -1),       // right 32
            (1 << 30, -5),       // right 36
            (1 << 30, -10),      // right 41
            (i32::MAX, -32),     // right 63
            (0, 0),              // a zero mantissa
            (1_518_500_250, -7), // right 38, an even non-power-of-two
            (1 << 30, 0),        // right 31
            (1_500_000_000, 40), // a dead-ReLU multiplier's left shift
        ];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (state >> 32) as i32
        };
        for n in (1..=33).chain([64]) {
            let mults: Vec<(i32, i32)> = (0..n).map(|ch| kinds[(ch * 3 + n) % 8]).collect();
            let mut rows: Vec<Vec<i32>> =
                [i32::MIN, i32::MAX, 0, 1, -1].iter().map(|&v| vec![v; n]).collect();
            // products exactly on a rounding half: `±k · 2^(right − 31)`
            // times the mantissa `2^30` is `±k/2 · 2^right`, for odd `k`
            for k in [1, -1, 3, -3] {
                let half = |&(m, shift): &(i32, i32)| match (m, 31 - shift) {
                    (0x4000_0000, right @ 32..=41) => k << (right - 31),
                    _ => k,
                };
                rows.push(mults.iter().map(half).collect());
            }
            for _ in 0..4 {
                rows.push((0..n).map(|_| next()).collect());
                rows.push((0..n).map(|_| next() >> 11).collect());
            }
            for zp in [-128i8, 127] {
                let relu6 = (zp as i32 + 40).min(127) as i8;
                for bounds in [(zp, 127), (zp, relu6), (-128, 127)] {
                    let oracle =
                        Requantizer::with_level(Level::Baseline, mults.clone(), zp, bounds)
                            .unwrap();
                    for level in supported_levels() {
                        let rq = Requantizer::with_level(level, mults.clone(), zp, bounds).unwrap();
                        for acc in &rows {
                            let want: Vec<i8> = acc
                                .iter()
                                .enumerate()
                                .map(|(ch, &v)| oracle.apply(ch, v))
                                .collect();
                            let mut got = vec![0x55i8; n];
                            (&rq).retire(acc, &mut got);
                            assert_eq!(got, want, "{level:?} n {n} zp {zp} {bounds:?} {acc:?}");
                        }
                    }
                }
            }
        }
    }

    /// Bounds-checked tap loop, one channel at a time.
    fn depthwise_oracle(
        input: &[i8],
        zp: i8,
        s: DepthwiseShape,
        w: &[i8],
        bias: &[i32],
    ) -> Vec<i32> {
        let mut out = Vec::new();
        for oy in 0..s.out_h {
            for ox in 0..s.out_w {
                for ch in 0..s.c {
                    let mut acc = bias[ch];
                    for ky in 0..s.kernel_h {
                        for kx in 0..s.kernel_w {
                            let iy = (oy * s.stride + ky) as isize - s.pad_top as isize;
                            let ix = (ox * s.stride + kx) as isize - s.pad_left as isize;
                            if (0..s.in_h as isize).contains(&iy)
                                && (0..s.in_w as isize).contains(&ix)
                            {
                                let x = input[(iy as usize * s.in_w + ix as usize) * s.c + ch];
                                let wv = w[(ky * s.kernel_w + kx) * s.c + ch];
                                acc = acc
                                    .wrapping_add((i32::from(x) - i32::from(zp)) * i32::from(wv));
                            }
                        }
                    }
                    out.push(acc);
                }
            }
        }
        out
    }

    #[test]
    fn depthwise_every_level_matches_the_oracle() {
        // (in_h, in_w, c, kh, kw, stride, pad_top, pad_left)
        let cases = [
            (5, 7, 3, 3, 3, 1, 1, 1),
            (6, 5, 17, 3, 3, 2, 0, 1),
            (4, 4, 16, 1, 1, 1, 0, 0),
            (9, 3, 64, 3, 3, 1, 1, 1),
            (5, 6, 8, 2, 4, 2, 1, 2),
        ];
        for (in_h, in_w, c, kh, kw, stride, pad_top, pad_left) in cases {
            let out_h = (in_h + 2 * pad_top - kh) / stride + 1;
            let out_w = (in_w + 2 * pad_left - kw) / stride + 1;
            let s = DepthwiseShape {
                in_h,
                in_w,
                c,
                kernel_h: kh,
                kernel_w: kw,
                stride,
                out_h,
                out_w,
                pad_top,
                pad_left,
            };
            let input = data_i8(in_h * in_w * c, 3);
            let mut w = data_i8(kh * kw * c, 4);
            w[c - 1] = i8::MIN;
            let bias: Vec<i32> = (0..c as i32).map(|ch| ch * 31 - 200).collect();
            for zp in [-128i8, 5, 127] {
                let want = depthwise_oracle(&input, zp, s, &w, &bias);
                for level in supported_levels() {
                    let p = PackedDepthwise::with_level(level, s, &w, &bias).unwrap();
                    let mut scratch = I8Scratch::new(p.scratch_len());
                    let got = accumulators(want.len(), |epi, out| {
                        p.run(&input, zp, epi, &mut scratch, out)
                    });
                    assert_eq!(got, want, "{level:?} zp {zp} {s:?}");
                }
            }
        }
    }
}
