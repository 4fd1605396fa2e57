//! Grid point types: real (`f64`) and complex ([`C64`]).
//!
//! The paper: "every point in the grid can be a real or complex number
//! (8 or 16 bytes)". The communication layers only need
//! [`Scalar::BYTES`]; the stencil kernel sees every grid as flat `f64`
//! *lanes* ([`Scalar::lanes`]) — one per real point, two (`re, im`) per
//! complex point — because its coefficients are real, so both point types
//! run the same row kernel.

use std::fmt::Debug;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A field element a grid can hold.
pub trait Scalar:
    Copy
    + Debug
    + PartialEq
    + Add<Output = Self>
    + Sub<Output = Self>
    + AddAssign
    + Neg<Output = Self>
    + Send
    + Sync
    + 'static
{
    /// Bytes per grid point (8 or 16).
    const BYTES: usize;

    /// `f64` lanes per point: 1 for real, 2 (`re, im`) for complex.
    const LANES: usize;

    /// The points of `s` as flat `f64` lanes, [`Scalar::LANES`] per point
    /// in storage order.
    fn lanes(s: &[Self]) -> &[f64];

    /// Mutable [`Scalar::lanes`].
    fn lanes_mut(s: &mut [Self]) -> &mut [f64];

    /// Additive identity.
    fn zero() -> Self;

    /// Multiply by a real stencil coefficient.
    fn scale(self, c: f64) -> Self;

    /// Embed a real number.
    fn from_f64(x: f64) -> Self;

    /// Modulus (for error norms).
    fn abs(self) -> f64;

    /// `self · conj(other)`, real part — the inner product the
    /// orthogonalization step needs.
    fn dot_re(self, other: Self) -> f64;

    /// The point's raw bit pattern, for bitwise run digests: two words,
    /// the second zero for real scalars. Two values digest equal iff they
    /// are bit-identical (`0.0` and `-0.0` differ; NaN payloads count).
    fn bit_pattern(self) -> [u64; 2];

    /// Rebuild a point from its raw bit pattern — the exact inverse of
    /// [`Scalar::bit_pattern`], so checkpoints serialized as bit words
    /// restore bit-identical values (signed zeros and NaN payloads
    /// included). Real scalars ignore the second word.
    fn from_bit_pattern(words: [u64; 2]) -> Self;
}

impl Scalar for f64 {
    const BYTES: usize = 8;
    const LANES: usize = 1;

    fn lanes(s: &[f64]) -> &[f64] {
        s
    }

    fn lanes_mut(s: &mut [f64]) -> &mut [f64] {
        s
    }

    fn zero() -> Self {
        0.0
    }

    fn scale(self, c: f64) -> Self {
        self * c
    }

    fn from_f64(x: f64) -> Self {
        x
    }

    fn abs(self) -> f64 {
        f64::abs(self)
    }

    fn dot_re(self, other: Self) -> f64 {
        self * other
    }

    fn bit_pattern(self) -> [u64; 2] {
        [self.to_bits(), 0]
    }

    fn from_bit_pattern(words: [u64; 2]) -> Self {
        f64::from_bits(words[0])
    }
}

/// A complex number stored as two `f64`s — the 16-byte grid point type.
/// `repr(C)` pins the layout to `re, im` with no padding, which the lane
/// view ([`Scalar::lanes`]) relies on.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// Construct from parts.
    pub const fn new(re: f64, im: f64) -> C64 {
        C64 { re, im }
    }

    /// Complex conjugate.
    pub fn conj(self) -> C64 {
        C64::new(self.re, -self.im)
    }

    /// Squared modulus.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }
}

impl Add for C64 {
    type Output = C64;
    fn add(self, o: C64) -> C64 {
        C64::new(self.re + o.re, self.im + o.im)
    }
}

impl Sub for C64 {
    type Output = C64;
    fn sub(self, o: C64) -> C64 {
        C64::new(self.re - o.re, self.im - o.im)
    }
}

impl AddAssign for C64 {
    fn add_assign(&mut self, o: C64) {
        self.re += o.re;
        self.im += o.im;
    }
}

impl Neg for C64 {
    type Output = C64;
    fn neg(self) -> C64 {
        C64::new(-self.re, -self.im)
    }
}

impl Mul for C64 {
    type Output = C64;
    fn mul(self, o: C64) -> C64 {
        C64::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl Mul<f64> for C64 {
    type Output = C64;
    fn mul(self, c: f64) -> C64 {
        C64::new(self.re * c, self.im * c)
    }
}

// The lane view's layout argument, checked at compile time: a `C64` is
// exactly two `f64`s at `f64` alignment.
const _: () = assert!(std::mem::size_of::<C64>() == 2 * std::mem::size_of::<f64>());
const _: () = assert!(std::mem::align_of::<C64>() == std::mem::align_of::<f64>());

impl Scalar for C64 {
    const BYTES: usize = 16;
    const LANES: usize = 2;

    fn lanes(s: &[C64]) -> &[f64] {
        // SAFETY: `C64` is `repr(C) { re: f64, im: f64 }` — size 16, align
        // 8, no padding (asserted above) — so `s` is `2·len` initialized,
        // contiguous, `f64`-aligned values inside one allocation; `2·len`
        // cannot overflow because the slice's byte length already fits
        // `isize`. The returned borrow has `s`'s lifetime and is shared
        // like it.
        unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<f64>(), s.len() * 2) }
    }

    fn lanes_mut(s: &mut [C64]) -> &mut [f64] {
        // SAFETY: layout as in `lanes`; every `f64` bit pattern is a valid
        // `C64` component, so writes through the view keep `s` valid, and
        // the view holds `s`'s unique borrow for its whole lifetime.
        unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr().cast::<f64>(), s.len() * 2) }
    }

    fn zero() -> Self {
        C64::new(0.0, 0.0)
    }

    fn scale(self, c: f64) -> Self {
        self * c
    }

    fn from_f64(x: f64) -> Self {
        C64::new(x, 0.0)
    }

    fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    fn dot_re(self, other: Self) -> f64 {
        // Re(self · conj(other))
        self.re * other.re + self.im * other.im
    }

    fn bit_pattern(self) -> [u64; 2] {
        [self.re.to_bits(), self.im.to_bits()]
    }

    fn from_bit_pattern(words: [u64; 2]) -> Self {
        C64::new(f64::from_bits(words[0]), f64::from_bits(words[1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_sizes_match_the_paper() {
        assert_eq!(<f64 as Scalar>::BYTES, 8);
        assert_eq!(<C64 as Scalar>::BYTES, 16);
        assert_eq!(std::mem::size_of::<C64>(), 16);
        assert_eq!(std::mem::align_of::<C64>(), 8);
        assert_eq!(<f64 as Scalar>::LANES * 8, <f64 as Scalar>::BYTES);
        assert_eq!(<C64 as Scalar>::LANES * 8, <C64 as Scalar>::BYTES);
    }

    #[test]
    fn lanes_are_re_im_interleaved_and_writes_land_in_the_right_component() {
        let mut v = vec![
            C64::new(1.0, -2.0),
            C64::new(3.0, -4.0),
            C64::new(5.0, -6.0),
        ];
        assert_eq!(C64::lanes(&v), &[1.0, -2.0, 3.0, -4.0, 5.0, -6.0]);
        assert_eq!(C64::lanes(&v[1..2]), &[3.0, -4.0]);
        assert!(C64::lanes(&v[..0]).is_empty());
        let lanes = C64::lanes_mut(&mut v);
        lanes[2] = 30.0; // point 1, re
        lanes[5] = -60.0; // point 2, im
        assert_eq!(
            v,
            vec![
                C64::new(1.0, -2.0),
                C64::new(30.0, -4.0),
                C64::new(5.0, -60.0)
            ]
        );
        // NaN payloads and signed zeros pass through the view untouched.
        let odd = f64::from_bits(0x7ff8_0000_0000_beef);
        C64::lanes_mut(&mut v)[1] = odd;
        C64::lanes_mut(&mut v)[0] = -0.0;
        assert_eq!(v[0].bit_pattern(), [(-0.0f64).to_bits(), odd.to_bits()]);

        let mut r = vec![1.0f64, 2.0];
        assert_eq!(f64::lanes(&r), &[1.0, 2.0]);
        f64::lanes_mut(&mut r)[1] = 7.0;
        assert_eq!(r, vec![1.0, 7.0]);
    }

    #[test]
    fn complex_arithmetic() {
        let a = C64::new(1.0, 2.0);
        let b = C64::new(3.0, -1.0);
        assert_eq!(a + b, C64::new(4.0, 1.0));
        assert_eq!(a - b, C64::new(-2.0, 3.0));
        assert_eq!(a * b, C64::new(5.0, 5.0));
        assert_eq!(a.scale(2.0), C64::new(2.0, 4.0));
        assert_eq!(a.conj(), C64::new(1.0, -2.0));
        assert!((a.abs() - 5.0f64.sqrt()).abs() < 1e-15);
        assert_eq!(-a, C64::new(-1.0, -2.0));
    }

    #[test]
    fn dot_products() {
        let a = C64::new(1.0, 2.0);
        assert!((a.dot_re(a) - a.norm_sqr()).abs() < 1e-15);
        assert!((2.0f64.dot_re(3.0) - 6.0).abs() < 1e-15);
    }

    #[test]
    fn bit_patterns_distinguish_what_equality_cannot() {
        // -0.0 == 0.0 but their digests must differ: a digest asserts
        // bitwise identity, not numeric equality.
        assert_ne!((-0.0f64).bit_pattern(), 0.0f64.bit_pattern());
        assert_eq!(1.5f64.bit_pattern(), [1.5f64.to_bits(), 0]);
        assert_eq!(
            C64::new(1.5, -2.5).bit_pattern(),
            [1.5f64.to_bits(), (-2.5f64).to_bits()]
        );
    }

    #[test]
    fn bit_patterns_round_trip_exactly() {
        // from_bit_pattern must invert bit_pattern bit-for-bit, including
        // the values numeric equality cannot see.
        for v in [0.0f64, -0.0, 1.5, -2.5e-300, f64::NAN, f64::INFINITY] {
            let back = f64::from_bit_pattern(v.bit_pattern());
            assert_eq!(back.to_bits(), v.to_bits());
        }
        let c = C64::new(-0.0, f64::NAN);
        let back = C64::from_bit_pattern(c.bit_pattern());
        assert_eq!(back.re.to_bits(), c.re.to_bits());
        assert_eq!(back.im.to_bits(), c.im.to_bits());
    }

    #[test]
    fn scalar_generic_code_works_for_both() {
        fn sum3<T: Scalar>(a: T, b: T, c: T) -> T {
            a + b + c
        }
        assert_eq!(sum3(1.0, 2.0, 3.0), 6.0);
        assert_eq!(
            sum3(C64::new(1.0, 0.0), C64::new(0.0, 1.0), C64::new(1.0, 1.0)),
            C64::new(2.0, 2.0)
        );
    }
}
