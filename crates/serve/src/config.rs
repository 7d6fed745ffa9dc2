//! Serving-tier configuration.

/// Configuration of one serving tier instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Maximum requests coalesced into one batched lookup: the cap on what
    /// a worker takes from the pending queue at once (batches fill only
    /// while the workers are busy; an idle worker serves a lone request at
    /// once). `1` disables coalescing; `0` is treated as `1`.
    pub max_batch: usize,
    /// Worker tasks run on the shared rayon pool. Each worker owns one
    /// inference session.
    pub workers: usize,
    /// Per-tenant in-flight budget: a tenant with this many unanswered
    /// requests has further submissions shed. This is the fairness
    /// mechanism — one hot tenant can fill at most its own budget, never
    /// the whole of the pending queue.
    pub tenant_inflight_cap: usize,
    /// Prefix-product cache capacity of each worker session.
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { max_batch: 32, workers: 1, tenant_inflight_cap: 256, cache_capacity: 4_096 }
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
}
