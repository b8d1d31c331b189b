//! Exact integer accumulators for the evaluation kernels.
//!
//! The placer's star sums and the RUDY overlap products are integer
//! arithmetic that must never round or wrap: the bit-identity of cold, warm
//! and reference evaluations rests on every such sum being exact. Each of
//! these kernels is written once, generic over its accumulator [`Acc`], and
//! runs in `i64` when a bound computed from its inputs proves that no value
//! it forms can leave the `i64` range, and in `i128` past that bound. Both
//! instantiations compute the same integers, so the width never shows in a
//! result; `i64` only saves the software `i128` division and `i128 → f64`
//! conversion on every input inside the bound.

#[cfg(test)]
use std::cell::Cell;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An exact integer accumulator: `i64` or `i128`.
pub(crate) trait Acc:
    Copy
    + Ord
    + From<i64>
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + AddAssign
{
    /// Zero.
    const ZERO: Self;

    /// `self as i64`.
    fn to_i64(self) -> i64;

    /// `self as f64`, rounded to nearest like every integer-to-float `as`,
    /// so an `i64` and an `i128` holding the same integer give the same bits.
    fn to_f64(self) -> f64;
}

impl Acc for i64 {
    const ZERO: Self = 0;

    #[inline]
    fn to_i64(self) -> i64 {
        self
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
}

impl Acc for i128 {
    const ZERO: Self = 0;

    #[inline]
    fn to_i64(self) -> i64 {
        self as i64
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
}

/// Whether a kernel whose values are bounded in magnitude by `bound` is
/// exact in `i64`.
pub(crate) fn fits_i64(bound: u128) -> bool {
    let fits = bound <= i64::MAX as u128;
    #[cfg(test)]
    let fits = {
        let fits = fits && !FORCE_I128.with(Cell::get);
        I128_RUNS.with(|runs| runs.set(runs.get() + usize::from(!fits)));
        fits
    };
    fits
}

/// `w · h` as `f64`: the `i64` product when it fits, else the `i128` one —
/// the value `(w as i128 * h as i128) as f64` gives, rounded once.
#[inline]
pub(crate) fn area_f64(w: i64, h: i64) -> f64 {
    match w.checked_mul(h) {
        Some(a) => a as f64,
        None => (w as i128 * h as i128) as f64,
    }
}

#[cfg(test)]
thread_local! {
    /// Set inside [`with_i128`]: every bound check on this thread fails.
    static FORCE_I128: Cell<bool> = const { Cell::new(false) };
    /// How many bound checks on this thread have chosen `i128`.
    static I128_RUNS: Cell<usize> = const { Cell::new(0) };
}

/// Runs `f` with every bound check on this thread failing, so each kernel
/// takes its `i128` instantiation.
#[cfg(test)]
pub(crate) fn with_i128<R>(f: impl FnOnce() -> R) -> R {
    FORCE_I128.with(|force| force.set(true));
    let out = f();
    FORCE_I128.with(|force| force.set(false));
    out
}

/// How many kernels on this thread have run in `i128` so far.
#[cfg(test)]
pub(crate) fn i128_runs() -> usize {
    I128_RUNS.with(Cell::get)
}
