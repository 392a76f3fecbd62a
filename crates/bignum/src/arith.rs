//! Addition, subtraction, multiplication (schoolbook + Karatsuba) and
//! bit shifts, with operator impls.

use crate::BigUint;
use std::ops::{Add, AddAssign, Mul, Shl, Shr, Sub, SubAssign};

/// Operand size (in limbs) above which multiplication switches from
/// schoolbook to Karatsuba.
///
/// Tuned empirically (EXPERIMENTS.md X5): this allocation-based Karatsuba only beats the
/// cache-friendly schoolbook loop above ~128 limbs (8192-bit operands),
/// so every RSA-sized multiplication (≤ 64 limbs) takes the schoolbook
/// path and Karatsuba only kicks in for the internal products of very
/// large moduli.
const KARATSUBA_THRESHOLD: usize = 128;

impl BigUint {
    /// `self + other`.
    pub fn add_ref(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for i in 0..long.len() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = long[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        BigUint::from_limbs(out)
    }

    /// `self - other`. Panics on underflow (callers uphold `self >= other`).
    pub fn sub_ref(&self, other: &BigUint) -> BigUint {
        assert!(self >= other, "BigUint subtraction underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        BigUint::from_limbs(out)
    }

    /// Checked subtraction: `None` on underflow.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            None
        } else {
            Some(self.sub_ref(other))
        }
    }

    /// `self * other`, dispatching on operand size.
    pub fn mul_ref(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        if self.limbs.len() >= KARATSUBA_THRESHOLD && other.limbs.len() >= KARATSUBA_THRESHOLD {
            karatsuba(&self.limbs, &other.limbs)
        } else {
            BigUint::from_limbs(schoolbook(&self.limbs, &other.limbs))
        }
    }

    /// Multiply by a single limb.
    pub fn mul_u64(&self, m: u64) -> BigUint {
        if m == 0 || self.is_zero() {
            return BigUint::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &l in &self.limbs {
            let prod = l as u128 * m as u128 + carry;
            out.push(prod as u64);
            carry = prod >> 64;
        }
        if carry != 0 {
            out.push(carry as u64);
        }
        BigUint::from_limbs(out)
    }

    /// Left shift by `bits`.
    pub fn shl_bits(&self, bits: usize) -> BigUint {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }

    /// Right shift by `bits`.
    pub fn shr_bits(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        BigUint::from_limbs(out)
    }
}

/// Schoolbook multiplication on raw limb slices.
fn schoolbook(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let acc = out[i + j] as u128 + ai as u128 * bj as u128 + carry;
            out[i + j] = acc as u64;
            carry = acc >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let acc = out[k] as u128 + carry;
            out[k] = acc as u64;
            carry = acc >> 64;
            k += 1;
        }
    }
    out
}

/// Karatsuba multiplication: splits at half the shorter length and recurses.
fn karatsuba(a: &[u64], b: &[u64]) -> BigUint {
    let split = a.len().min(b.len()) / 2;
    if split < KARATSUBA_THRESHOLD / 2 {
        return BigUint::from_limbs(schoolbook(a, b));
    }
    let (a_lo, a_hi) = a.split_at(split);
    let (b_lo, b_hi) = b.split_at(split);
    let a_lo = BigUint::from_limbs(a_lo.to_vec());
    let a_hi = BigUint::from_limbs(a_hi.to_vec());
    let b_lo = BigUint::from_limbs(b_lo.to_vec());
    let b_hi = BigUint::from_limbs(b_hi.to_vec());

    let z2 = a_hi.mul_ref(&b_hi);
    let z0 = a_lo.mul_ref(&b_lo);
    // z1 = (a_lo + a_hi)(b_lo + b_hi) - z2 - z0
    let z1 = a_lo
        .add_ref(&a_hi)
        .mul_ref(&b_lo.add_ref(&b_hi))
        .sub_ref(&z2)
        .sub_ref(&z0);

    z2.shl_bits(2 * split * 64)
        .add_ref(&z1.shl_bits(split * 64))
        .add_ref(&z0)
}

macro_rules! forward_binop {
    ($trait:ident, $method:ident, $impl:ident) => {
        impl $trait<&BigUint> for &BigUint {
            type Output = BigUint;
            fn $method(self, rhs: &BigUint) -> BigUint {
                self.$impl(rhs)
            }
        }
        impl $trait<BigUint> for BigUint {
            type Output = BigUint;
            fn $method(self, rhs: BigUint) -> BigUint {
                self.$impl(&rhs)
            }
        }
        impl $trait<&BigUint> for BigUint {
            type Output = BigUint;
            fn $method(self, rhs: &BigUint) -> BigUint {
                self.$impl(rhs)
            }
        }
    };
}

forward_binop!(Add, add, add_ref);
forward_binop!(Sub, sub, sub_ref);
forward_binop!(Mul, mul, mul_ref);

impl AddAssign<&BigUint> for BigUint {
    fn add_assign(&mut self, rhs: &BigUint) {
        *self = self.add_ref(rhs);
    }
}

impl SubAssign<&BigUint> for BigUint {
    fn sub_assign(&mut self, rhs: &BigUint) {
        *self = self.sub_ref(rhs);
    }
}

impl Shl<usize> for &BigUint {
    type Output = BigUint;
    fn shl(self, bits: usize) -> BigUint {
        self.shl_bits(bits)
    }
}

impl Shr<usize> for &BigUint {
    type Output = BigUint;
    fn shr(self, bits: usize) -> BigUint {
        self.shr_bits(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn n(hex: &str) -> BigUint {
        BigUint::from_hex(hex).unwrap()
    }

    #[test]
    fn add_with_carry_chain() {
        let a = n("ffffffffffffffffffffffffffffffff");
        let one = BigUint::one();
        assert_eq!(a.add_ref(&one), n("100000000000000000000000000000000"));
    }

    #[test]
    fn sub_with_borrow_chain() {
        let a = n("100000000000000000000000000000000");
        assert_eq!(a.sub_ref(&BigUint::one()), n("ffffffffffffffffffffffffffffffff"));
    }

    #[test]
    fn checked_sub_underflow() {
        assert!(BigUint::one().checked_sub(&BigUint::from_u64(2)).is_none());
        assert_eq!(
            BigUint::from_u64(5).checked_sub(&BigUint::from_u64(2)),
            Some(BigUint::from_u64(3))
        );
    }

    #[test]
    fn mul_small_known_values() {
        assert_eq!(
            BigUint::from_u64(u64::MAX).mul_ref(&BigUint::from_u64(u64::MAX)),
            n("fffffffffffffffe0000000000000001")
        );
        assert!(BigUint::zero().mul_ref(&BigUint::from_u64(9)).is_zero());
    }

    #[test]
    fn mul_u64_matches_mul_ref() {
        let a = n("123456789abcdef0fedcba9876543210");
        assert_eq!(a.mul_u64(0xdead), a.mul_ref(&BigUint::from_u64(0xdead)));
    }

    #[test]
    fn shifts_roundtrip() {
        let a = n("deadbeefcafebabe1234");
        for bits in [0usize, 1, 13, 64, 65, 127, 200] {
            assert_eq!(a.shl_bits(bits).shr_bits(bits), a, "bits={bits}");
        }
    }

    #[test]
    fn shr_past_end_is_zero() {
        assert!(n("ff").shr_bits(9).is_zero());
    }

    #[test]
    fn karatsuba_matches_schoolbook_on_large_inputs() {
        // Operands above the threshold so the recursion actually runs.
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..3 {
            let a = BigUint::random_bits(&mut rng, 64 * (2 * KARATSUBA_THRESHOLD + 10));
            let b = BigUint::random_bits(&mut rng, 64 * (2 * KARATSUBA_THRESHOLD + 3));
            let kara = karatsuba(&a.limbs, &b.limbs);
            let school = BigUint::from_limbs(schoolbook(&a.limbs, &b.limbs));
            assert_eq!(kara, school);
        }
        // Unbalanced operands exercise the short-split fallback.
        let a = BigUint::random_bits(&mut rng, 64 * (3 * KARATSUBA_THRESHOLD));
        let b = BigUint::random_bits(&mut rng, 64 * 8);
        assert_eq!(a.mul_ref(&b), BigUint::from_limbs(schoolbook(&a.limbs, &b.limbs)));
    }

    fn arb_biguint(max_limbs: usize) -> impl Strategy<Value = BigUint> {
        proptest::collection::vec(any::<u64>(), 0..max_limbs).prop_map(BigUint::from_limbs)
    }

    proptest! {
        #[test]
        fn prop_add_commutative(a in arb_biguint(8), b in arb_biguint(8)) {
            prop_assert_eq!(a.add_ref(&b), b.add_ref(&a));
        }

        #[test]
        fn prop_add_associative(a in arb_biguint(6), b in arb_biguint(6), c in arb_biguint(6)) {
            prop_assert_eq!(a.add_ref(&b).add_ref(&c), a.add_ref(&b.add_ref(&c)));
        }

        #[test]
        fn prop_add_sub_inverse(a in arb_biguint(8), b in arb_biguint(8)) {
            prop_assert_eq!(a.add_ref(&b).sub_ref(&b), a);
        }

        #[test]
        fn prop_mul_commutative(a in arb_biguint(6), b in arb_biguint(6)) {
            prop_assert_eq!(a.mul_ref(&b), b.mul_ref(&a));
        }

        #[test]
        fn prop_mul_distributes_over_add(a in arb_biguint(5), b in arb_biguint(5), c in arb_biguint(5)) {
            prop_assert_eq!(
                a.mul_ref(&b.add_ref(&c)),
                a.mul_ref(&b).add_ref(&a.mul_ref(&c))
            );
        }

        #[test]
        fn prop_mul_identity(a in arb_biguint(8)) {
            prop_assert_eq!(a.mul_ref(&BigUint::one()), a.clone());
            prop_assert!(a.mul_ref(&BigUint::zero()).is_zero());
        }

        #[test]
        fn prop_shl_is_mul_by_power_of_two(a in arb_biguint(5), s in 0usize..150) {
            let mut p2 = BigUint::one();
            p2 = p2.shl_bits(s);
            prop_assert_eq!(a.shl_bits(s), a.mul_ref(&p2));
        }
    }
}
