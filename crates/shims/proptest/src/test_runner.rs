//! The deterministic RNG driving value generation, and the two
//! environment overrides of the runner:
//!
//! * `PROPTEST_SEED=N` (a `u64`) mixes `N` into every test's stream, so a
//!   run explores cases the fixed stream never reaches. A failure message
//!   names the seed, and setting it again replays the same cases.
//! * `PROPTEST_CASES=N` runs `N` cases per property instead of the
//!   configured count. CI raises it on the rotating-seed run.
//!
//! With neither set, every stream and case count is exactly the fixed one.

use std::sync::OnceLock;

/// `PROPTEST_SEED`, read once; `None` when unset.
///
/// # Panics
/// Panics when the variable is set but is not a `u64`.
pub fn seed_override() -> Option<u64> {
    static SEED: OnceLock<Option<u64>> = OnceLock::new();
    *SEED.get_or_init(|| env_override("PROPTEST_SEED"))
}

/// The number of cases to run: `PROPTEST_CASES` when set, else
/// `configured`.
///
/// # Panics
/// Panics when the variable is set but is not a `u32`.
pub fn cases(configured: u32) -> u32 {
    static CASES: OnceLock<Option<u32>> = OnceLock::new();
    CASES
        .get_or_init(|| env_override("PROPTEST_CASES"))
        .unwrap_or(configured)
}

fn env_override<T: std::str::FromStr>(name: &str) -> Option<T> {
    parse_override(name, std::env::var(name).ok())
}

/// The override in `raw`, the value of the variable `name`; `None` when
/// unset.
fn parse_override<T: std::str::FromStr>(name: &str, raw: Option<String>) -> Option<T> {
    let raw = raw?;
    match raw.trim().parse() {
        Ok(v) => Some(v),
        Err(_) => panic!(
            "{name}={raw:?} is not a valid {}",
            std::any::type_name::<T>()
        ),
    }
}

/// SplitMix64-seeded xoshiro256++ stream, derived from the test name,
/// case index and [`seed_override`], so every run of the suite with the
/// same `PROPTEST_SEED` (or none) explores the same cases.
#[derive(Clone, Debug)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Stream for case `case` of the named test under
    /// [`seed_override`].
    pub fn for_case(name: &str, case: u64) -> TestRng {
        Self::for_case_seeded(name, case, seed_override())
    }

    /// Stream for case `case` of the named test; `seed: None` is the
    /// fixed stream.
    fn for_case_seeded(name: &str, case: u64, seed: Option<u64>) -> TestRng {
        // FNV-1a over the test name, mixed with the case index.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        if let Some(seed) = seed {
            // One more FNV step keyed by the seed: seed 0 differs from
            // no seed.
            h = (h ^ seed).wrapping_mul(0x100000001b3);
        }
        let mut sm = h ^ case.wrapping_mul(0x9E3779B97F4A7C15);
        let mut next = || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        TestRng {
            s: [next(), next(), next(), next()],
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, span)`; `span == 0` yields 0.
    pub fn below(&mut self, span: u64) -> u64 {
        if span == 0 {
            return 0;
        }
        ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_override, TestRng};

    #[test]
    fn deterministic_per_name_and_case() {
        let mut a = TestRng::for_case("foo", 3);
        let mut b = TestRng::for_case("foo", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::for_case("foo", 4);
        let mut d = TestRng::for_case("bar", 3);
        let x = TestRng::for_case("foo", 3).next_u64();
        assert_ne!(c.next_u64(), x);
        assert_ne!(d.next_u64(), x);
    }

    #[test]
    fn seed_selects_a_different_reproducible_stream() {
        let fixed = TestRng::for_case_seeded("foo", 3, None).next_u64();
        // The fixed stream predates the override; it must not move.
        assert_eq!(fixed, 0x968fb37b197598e);
        let s0 = TestRng::for_case_seeded("foo", 3, Some(0)).next_u64();
        let s7 = TestRng::for_case_seeded("foo", 3, Some(7)).next_u64();
        assert_ne!(s0, fixed);
        assert_ne!(s7, fixed);
        assert_ne!(s0, s7);
        assert_eq!(s7, TestRng::for_case_seeded("foo", 3, Some(7)).next_u64());
    }

    #[test]
    fn overrides_parse_from_the_variable_value() {
        assert_eq!(parse_override::<u32>("PROPTEST_CASES", None), None);
        assert_eq!(
            parse_override::<u32>("PROPTEST_CASES", Some(" 96\n".into())),
            Some(96)
        );
        assert_eq!(
            parse_override::<u64>("PROPTEST_SEED", Some("18446744073709551615".into())),
            Some(u64::MAX)
        );
    }

    #[test]
    #[should_panic(expected = "PROPTEST_CASES=\"-1\" is not a valid u32")]
    fn a_malformed_override_panics() {
        parse_override::<u32>("PROPTEST_CASES", Some("-1".into()));
    }

    #[test]
    fn below_in_range() {
        let mut rng = TestRng::for_case("below", 0);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
        assert_eq!(rng.below(0), 0);
        assert_eq!(rng.below(1), 0);
    }
}
