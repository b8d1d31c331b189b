//! Test-runner types: configuration, RNG and case errors.

use std::fmt;

/// The RNG driving case generation (deterministic per test).
pub type TestRng = rand::ChaCha8Rng;

/// Creates the deterministic case RNG (used by the `proptest!` expansion so
/// consumer crates don't need a direct `rand` dependency).
pub fn new_rng(seed: u64) -> TestRng {
    use rand::SeedableRng;
    TestRng::seed_from_u64(seed)
}

/// Configuration accepted by `#![proptest_config(...)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // the real default of 256 cases is overkill for the heavyweight flow
        // tests; 32 keep good coverage at CI-friendly runtimes
        Self { cases: 32 }
    }
}

/// A failed property-test case.
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Creates a failure with the given message.
    pub fn fail(message: String) -> Self {
        Self(message)
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}
