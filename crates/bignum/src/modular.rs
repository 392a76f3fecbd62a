//! Modular arithmetic: gcd, extended gcd, modular inverse, and modular
//! exponentiation (Montgomery-accelerated for odd moduli).

use crate::{BigUint, Montgomery};

impl BigUint {
    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        // Factor out common powers of two.
        let mut shift = 0usize;
        while a.is_even() && b.is_even() {
            a = a.shr_bits(1);
            b = b.shr_bits(1);
            shift += 1;
        }
        while a.is_even() {
            a = a.shr_bits(1);
        }
        loop {
            while b.is_even() {
                b = b.shr_bits(1);
            }
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            b = b.sub_ref(&a);
            if b.is_zero() {
                return a.shl_bits(shift);
            }
        }
    }

    /// Modular inverse of `self` mod `m`, or `None` if `gcd(self, m) != 1`.
    ///
    /// Uses the extended Euclidean algorithm with sign tracking via
    /// (value, negative?) pairs, since [`BigUint`] is unsigned.
    pub fn mod_inverse(&self, m: &BigUint) -> Option<BigUint> {
        if m.is_zero() || m.is_one() {
            return None;
        }
        let a = self.rem_ref(m);
        if a.is_zero() {
            return None;
        }
        // Invariants: old_r = old_s * a (mod m), r = s * a (mod m).
        let mut old_r = a;
        let mut r = m.clone();
        let mut old_s = (BigUint::one(), false);
        let mut s = (BigUint::zero(), false);

        while !r.is_zero() {
            let (q, rem) = old_r.div_rem(&r);
            old_r = std::mem::replace(&mut r, rem);
            // new_s = old_s - q * s
            let qs = q.mul_ref(&s.0);
            let new_s = signed_sub(&old_s, &(qs, s.1));
            old_s = std::mem::replace(&mut s, new_s);
        }

        if !old_r.is_one() {
            return None;
        }
        let (val, neg) = old_s;
        let val = val.rem_ref(m);
        Some(if neg && !val.is_zero() { m.sub_ref(&val) } else { val })
    }

    /// `self^exp mod m`. Panics if `m` is zero.
    ///
    /// Odd moduli (the RSA case) go through Montgomery multiplication;
    /// even moduli fall back to classic square-and-multiply with full
    /// divisions.
    pub fn mod_pow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "mod_pow: zero modulus");
        if m.is_one() {
            return BigUint::zero();
        }
        if exp.is_zero() {
            return BigUint::one();
        }
        if m.is_odd() {
            let mont = Montgomery::new(m.clone());
            return mont.pow(self, exp);
        }
        // Fallback: left-to-right square and multiply.
        let base = self.rem_ref(m);
        let mut acc = BigUint::one();
        for i in (0..exp.bits()).rev() {
            acc = acc.mul_ref(&acc).rem_ref(m);
            if exp.bit(i) {
                acc = acc.mul_ref(&base).rem_ref(m);
            }
        }
        acc
    }

    /// Square-and-multiply modular exponentiation with full divisions,
    /// bypassing Montgomery — exposed only as the reference
    /// `tests/number_theory.rs` checks `mod_pow` against.
    #[doc(hidden)]
    pub fn mod_pow_naive_for_bench(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero());
        if m.is_one() {
            return BigUint::zero();
        }
        let base = self.rem_ref(m);
        let mut acc = BigUint::one();
        for i in (0..exp.bits()).rev() {
            acc = acc.mul_ref(&acc).rem_ref(m);
            if exp.bit(i) {
                acc = acc.mul_ref(&base).rem_ref(m);
            }
        }
        acc
    }

    /// `(self + other) mod m` with both inputs already reduced.
    pub fn mod_add(&self, other: &BigUint, m: &BigUint) -> BigUint {
        let s = self.add_ref(other);
        if &s >= m {
            s.sub_ref(m)
        } else {
            s
        }
    }

    /// `(self - other) mod m` with both inputs already reduced.
    pub fn mod_sub(&self, other: &BigUint, m: &BigUint) -> BigUint {
        if self >= other {
            self.sub_ref(other)
        } else {
            self.add_ref(m).sub_ref(other)
        }
    }
}

/// `(a - b)` on sign-tracked magnitudes.
fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        // a - b with same sign: magnitude subtraction.
        (false, false) => {
            if a.0 >= b.0 {
                (a.0.sub_ref(&b.0), false)
            } else {
                (b.0.sub_ref(&a.0), true)
            }
        }
        (true, true) => {
            if b.0 >= a.0 {
                (b.0.sub_ref(&a.0), false)
            } else {
                (a.0.sub_ref(&b.0), true)
            }
        }
        // a - (-b) = a + b ; (-a) - b = -(a + b)
        (false, true) => (a.0.add_ref(&b.0), false),
        (true, false) => (a.0.add_ref(&b.0), true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn gcd_known_values() {
        let g = BigUint::from_u64(48).gcd(&BigUint::from_u64(18));
        assert_eq!(g, BigUint::from_u64(6));
        assert_eq!(BigUint::zero().gcd(&BigUint::from_u64(5)), BigUint::from_u64(5));
        assert_eq!(BigUint::from_u64(5).gcd(&BigUint::zero()), BigUint::from_u64(5));
    }

    #[test]
    fn mod_inverse_small() {
        // 3 * 4 = 12 = 1 mod 11
        let inv = BigUint::from_u64(3).mod_inverse(&BigUint::from_u64(11)).unwrap();
        assert_eq!(inv, BigUint::from_u64(4));
    }

    #[test]
    fn mod_inverse_rejects_non_coprime() {
        assert!(BigUint::from_u64(6).mod_inverse(&BigUint::from_u64(9)).is_none());
        assert!(BigUint::zero().mod_inverse(&BigUint::from_u64(7)).is_none());
        assert!(BigUint::from_u64(3).mod_inverse(&BigUint::one()).is_none());
    }

    #[test]
    fn mod_pow_small_known() {
        // 2^10 mod 1000 = 24
        let r = BigUint::from_u64(2).mod_pow(&BigUint::from_u64(10), &BigUint::from_u64(1000));
        assert_eq!(r, BigUint::from_u64(24));
        // Fermat: a^(p-1) = 1 mod p
        let p = BigUint::from_u64(65537);
        let r = BigUint::from_u64(12345).mod_pow(&BigUint::from_u64(65536), &p);
        assert!(r.is_one());
    }

    #[test]
    fn mod_pow_even_modulus_fallback() {
        // 3^5 mod 16 = 243 mod 16 = 3
        let r = BigUint::from_u64(3).mod_pow(&BigUint::from_u64(5), &BigUint::from_u64(16));
        assert_eq!(r, BigUint::from_u64(3));
    }

    #[test]
    fn mod_pow_edge_cases() {
        let m = BigUint::from_u64(77);
        assert!(BigUint::from_u64(5).mod_pow(&BigUint::zero(), &m).is_one());
        assert!(BigUint::from_u64(5).mod_pow(&BigUint::one(), &BigUint::one()).is_zero());
    }

    #[test]
    fn mod_add_sub_wraparound() {
        let m = BigUint::from_u64(10);
        assert_eq!(
            BigUint::from_u64(7).mod_add(&BigUint::from_u64(8), &m),
            BigUint::from_u64(5)
        );
        assert_eq!(
            BigUint::from_u64(3).mod_sub(&BigUint::from_u64(8), &m),
            BigUint::from_u64(5)
        );
    }

    #[test]
    fn mod_inverse_large_random() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let m = crate::gen_prime(&mut rng, 256);
        for _ in 0..10 {
            let a = BigUint::random_below(&mut rng, &m);
            if a.is_zero() {
                continue;
            }
            let inv = a.mod_inverse(&m).expect("prime modulus => invertible");
            assert!(a.mul_ref(&inv).rem_ref(&m).is_one());
        }
    }

    fn arb_biguint(max_limbs: usize) -> impl Strategy<Value = BigUint> {
        proptest::collection::vec(any::<u64>(), 0..max_limbs).prop_map(BigUint::from_limbs)
    }

    proptest! {
        #[test]
        fn prop_gcd_divides_both(a in arb_biguint(4), b in arb_biguint(4)) {
            prop_assume!(!a.is_zero() && !b.is_zero());
            let g = a.gcd(&b);
            prop_assert!(a.rem_ref(&g).is_zero());
            prop_assert!(b.rem_ref(&g).is_zero());
        }

        #[test]
        fn prop_gcd_commutative(a in arb_biguint(4), b in arb_biguint(4)) {
            prop_assert_eq!(a.gcd(&b), b.gcd(&a));
        }

        #[test]
        fn prop_mod_inverse_correct(a in arb_biguint(3), m in arb_biguint(3)) {
            prop_assume!(m > BigUint::one());
            if let Some(inv) = a.mod_inverse(&m) {
                prop_assert!(a.mul_ref(&inv).rem_ref(&m).is_one());
                prop_assert!(inv < m);
            }
        }

        #[test]
        fn prop_mod_pow_matches_naive(a in 0u64..1000, e in 0u64..64, m in 2u64..1000) {
            let big = BigUint::from_u64(a)
                .mod_pow(&BigUint::from_u64(e), &BigUint::from_u64(m));
            // Naive via u128 repeated multiplication.
            let mut acc: u128 = 1;
            for _ in 0..e {
                acc = acc * a as u128 % m as u128;
            }
            prop_assert_eq!(big.to_u64(), Some(acc as u64));
        }

        #[test]
        fn prop_mod_pow_product_rule(a in 1u64..500, b in 1u64..500, m in 3u64..1001) {
            // (a*b)^e mod m == a^e * b^e mod m, e = 7
            prop_assume!(m % 2 == 1);
            let e = BigUint::from_u64(7);
            let m = BigUint::from_u64(m);
            let lhs = BigUint::from_u64(a).mul_ref(&BigUint::from_u64(b)).mod_pow(&e, &m);
            let rhs = BigUint::from_u64(a)
                .mod_pow(&e, &m)
                .mul_ref(&BigUint::from_u64(b).mod_pow(&e, &m))
                .rem_ref(&m);
            prop_assert_eq!(lhs, rhs);
        }
    }
}
