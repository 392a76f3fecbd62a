//! The run's op sequence, materialised from the seed before the clock
//! starts: which user (zipfian) performs which kind of op.
//!
//! `mp_loadgen::Plan` draws each op's kind independently, so two seeds
//! give two slightly different mixes and `ops_per_s` would differ by the
//! mix, not by the system. Here the kinds come in shuffled cycles that
//! hold the mix's proportions exactly (GET 70 / LOGIN 20 / INFO 10 is
//! seven, two and one in every ten ops), so any prefix of the plan is
//! the same amount of each kind of work, whatever the seed.

use mp_loadgen::{Mix, OpKind, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub user: u32,
    pub kind: OpKind,
    /// This is the plan's n-th op of its kind. The client's own entropy
    /// for the op is a function of (kind, n) alone: the seed decides who
    /// does what in which order, while the n-th GET of every run, on any
    /// seed, searches for the same primes. The generator's luck is not a
    /// variable of the experiment.
    pub nth_of_kind: u32,
}

pub struct Plan {
    pub ops: Vec<Op>,
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl Plan {
    pub fn generate(seed: u64, users: usize, mix: Mix, total_ops: usize) -> Plan {
        let weights = [
            (OpKind::Put, mix.put),
            (OpKind::Get, mix.get),
            (OpKind::Info, mix.info),
            (OpKind::PortalLogin, mix.portal_login),
        ];
        let unit = weights.iter().fold(0, |g, (_, w)| gcd(g, *w)).max(1);
        let cycle: Vec<OpKind> =
            weights.iter().flat_map(|(kind, w)| std::iter::repeat_n(*kind, (w / unit) as usize)).collect();
        assert!(!cycle.is_empty(), "traffic mix must have positive weight");

        let mut rng = StdRng::seed_from_u64(seed);
        let zipf = Zipf::new(users.max(1), 1.0);
        let mut ops = Vec::with_capacity(total_ops + cycle.len());
        let mut seen = [0u32; OpKind::ALL.len()];
        while ops.len() < total_ops {
            let mut kinds = cycle.clone();
            for i in (1..kinds.len()).rev() {
                kinds.swap(i, rng.gen_range(0..i as u64 + 1) as usize);
            }
            for kind in kinds {
                let nth = &mut seen[OpKind::ALL.iter().position(|k| *k == kind).expect("a known kind")];
                ops.push(Op { user: zipf.sample(&mut rng) as u32, kind, nth_of_kind: *nth });
                *nth += 1;
            }
        }
        ops.truncate(total_ops);
        Plan { ops }
    }

    /// FNV-1a over (user, kind) of every op: equal digests mean the two
    /// runs replayed the same sequence.
    pub fn digest(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for op in &self.ops {
            for byte in op.user.to_le_bytes().into_iter().chain(op.kind.name().bytes().take(2)) {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        format!("{h:016x}")
    }
}
