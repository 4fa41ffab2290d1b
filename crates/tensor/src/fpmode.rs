//! The floating-point environment of a training step: subnormals flush
//! to zero.
//!
//! Once a model converges, `dLogits`, the gradients behind them and the
//! Adam moments drift below `f32::MIN_POSITIVE`. x86 cores handle such
//! subnormal operands and results with microcode assists, which made the
//! head's tn GEMM 39× slower and a converged epoch ~5× slower than an
//! early one. Setting FTZ (flush subnormal results to zero) and DAZ
//! (read subnormal operands as zero) in MXCSR removes the assists.
//!
//! **Contract: training steps flush, inference runs IEEE.**
//! [`FlushDenormals`] is held for the whole of
//! `gsgcn_nn::model::GcnModel::train_step` and the baselines' `train_batch`,
//! and nowhere on the inference or serving path. Flushing inference
//! gained nothing on evaluation time and measured serving capacity
//! lower, so the mode is not a flag, variable or config field. Inside a
//! step every value below `f32::MIN_POSITIVE` reads and writes as a
//! signed zero.
//!
//! MXCSR is per thread. The rayon shim carries the dispatching thread's
//! MXCSR into every piece of a parallel call and restores the worker's
//! own value afterwards, so a piece computes the same bits whichever
//! thread claims it.
//!
//! The mode switch is an `ldmxcsr`, which the compiler does not order
//! against floating-point code around it. Hold the guard across whole
//! calls, as the training step does, rather than around single
//! expressions.

use std::marker::PhantomData;

/// FTZ (bit 15) | DAZ (bit 6).
const FTZ_DAZ: u32 = 0x8040;

/// RAII guard: subnormals flush to zero on this thread until it drops.
///
/// [`enter`](Self::enter) saves MXCSR and sets FTZ|DAZ; drop (also
/// during unwinding) restores the saved value, so guards nest. The guard
/// is `!Send`: it must drop on the thread whose mode it changed. It has
/// no `Default`: the only way to flush is an explicit `enter` at the
/// training-step sites. On targets other than x86_64 it does nothing.
#[must_use = "the mode is restored as soon as the guard drops"]
pub struct FlushDenormals {
    saved: u32,
    _not_send: PhantomData<*const ()>,
}

impl FlushDenormals {
    /// Switch this thread to flush-to-zero until the guard drops.
    pub fn enter() -> Self {
        let saved = mxcsr();
        set_mxcsr(saved | FTZ_DAZ);
        FlushDenormals {
            saved,
            _not_send: PhantomData,
        }
    }
}

impl Drop for FlushDenormals {
    fn drop(&mut self) {
        set_mxcsr(self.saved);
    }
}

#[cfg(target_arch = "x86_64")]
fn mxcsr() -> u32 {
    let mut v = 0u32;
    // SAFETY: `stmxcsr` stores the 32-bit MXCSR into `v`, a live,
    // aligned local; SSE is part of the x86_64 baseline.
    unsafe {
        std::arch::asm!("stmxcsr [{}]", in(reg) &mut v, options(nostack, preserves_flags));
    }
    v
}

#[cfg(target_arch = "x86_64")]
fn set_mxcsr(v: u32) {
    // SAFETY: `ldmxcsr` reads 32 bits from `v`, a live local. Every value
    // passed here is a value `stmxcsr` returned, possibly with FTZ|DAZ
    // added, so no reserved bit is set and it cannot fault. It changes
    // only this thread's rounding and flush state.
    unsafe {
        std::arch::asm!("ldmxcsr [{}]", in(reg) &v, options(nostack, preserves_flags, readonly));
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn mxcsr() -> u32 {
    0
}

#[cfg(not(target_arch = "x86_64"))]
fn set_mxcsr(_: u32) {}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use std::hint::black_box;

    /// Control bits only: the low six bits are sticky exception flags
    /// that ordinary arithmetic sets.
    fn control() -> u32 {
        mxcsr() & !0x3F
    }

    fn half_min() -> f32 {
        black_box(f32::MIN_POSITIVE / 2.0)
    }

    #[test]
    fn subnormals_flush_inside_the_guard_only() {
        assert!(half_min() * black_box(1.0) > 0.0, "IEEE outside the guard");
        {
            let _g = FlushDenormals::enter();
            assert_eq!((half_min() * black_box(1.0)).to_bits(), 0);
            // FTZ alone: a normal product that underflows flushes too.
            assert_eq!((black_box(1e-20f32) * black_box(1e-20f32)).to_bits(), 0);
        }
        assert!(half_min() * black_box(1.0) > 0.0, "IEEE after the guard");
    }

    #[test]
    fn guards_nest_and_restore_the_callers_mode() {
        let before = control();
        {
            let _outer = FlushDenormals::enter();
            let flushing = control();
            assert_eq!(flushing & FTZ_DAZ, FTZ_DAZ);
            {
                let _inner = FlushDenormals::enter();
                assert_eq!(control(), flushing);
            }
            assert_eq!(control(), flushing, "inner drop keeps the outer mode");
            assert_eq!((half_min() * black_box(1.0)).to_bits(), 0);
        }
        assert_eq!(control(), before);
    }

    #[test]
    fn restores_the_callers_mode_after_a_panic() {
        let before = control();
        let result = std::panic::catch_unwind(|| {
            let _g = FlushDenormals::enter();
            assert_eq!(control() & FTZ_DAZ, FTZ_DAZ);
            panic!("unwinds through the guard");
        });
        assert!(result.is_err());
        assert_eq!(control(), before);
        assert!(half_min() * black_box(1.0) > 0.0);
    }
}
