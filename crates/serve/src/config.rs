//! Serving-tier configuration.
//!
//! Every knob has an `EL_SERVE_*` environment override (registered in
//! `docs/env-vars.md`), so the latency bench and the CI smoke job can sweep
//! configurations without recompiling.

use std::env;

/// Configuration of one serving tier instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Maximum requests coalesced into one batched lookup: the cap on what
    /// a worker takes from a lane at once (batches fill only while the
    /// workers are busy; an idle worker serves a lone request at once). `1`
    /// disables coalescing (the request-at-a-time baseline the bench
    /// compares against).
    pub max_batch: usize,
    /// Worker tasks run on the shared rayon pool. Each worker owns its
    /// inference sessions (one per precision lane in use).
    pub workers: usize,
    /// Per-tenant in-flight budget: a tenant with this many unanswered
    /// requests has further submissions shed. This is the fairness
    /// mechanism — one hot tenant can fill at most its own budget, never
    /// the whole of a pending lane.
    pub tenant_inflight_cap: usize,
    /// Prefix-product cache capacity of each worker session.
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { max_batch: 32, workers: 1, tenant_inflight_cap: 256, cache_capacity: 4_096 }
    }
}

fn env_usize(name_value: Option<String>, default: usize) -> usize {
    name_value.and_then(|v| v.trim().parse().ok()).unwrap_or(default)
}

impl ServeConfig {
    /// Defaults overridden by the `EL_SERVE_*` environment knobs.
    pub fn from_env() -> Self {
        let d = Self::default();
        Self {
            max_batch: env_usize(env::var("EL_SERVE_MAX_BATCH").ok(), d.max_batch).max(1),
            workers: env_usize(env::var("EL_SERVE_WORKERS").ok(), d.workers).max(1),
            tenant_inflight_cap: env_usize(
                env::var("EL_SERVE_QUEUE_CAP").ok(),
                d.tenant_inflight_cap,
            )
            .max(1),
            cache_capacity: env_usize(env::var("EL_SERVE_CACHE_CAP").ok(), d.cache_capacity).max(1),
        }
    }

    /// Builder-style override of the batch cap.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServeConfig::default();
        assert!(c.max_batch > 1);
        assert!(c.workers >= 1);
        assert!(c.tenant_inflight_cap >= 1);
    }

    #[test]
    fn env_parse_falls_back_on_garbage() {
        assert_eq!(env_usize(Some("not a number".into()), 7), 7);
        assert_eq!(env_usize(Some(" 12 ".into()), 7), 12);
        assert_eq!(env_usize(None, 7), 7);
    }

    #[test]
    fn with_max_batch_clamps_to_one() {
        assert_eq!(ServeConfig::default().with_max_batch(0).max_batch, 1);
        assert_eq!(ServeConfig::default().with_max_batch(8).max_batch, 8);
    }
}
