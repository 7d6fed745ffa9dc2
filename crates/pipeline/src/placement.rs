//! Heterogeneous table placement.
//!
//! The paper's §I criticizes TT-Rec for compressing every table with one
//! homogeneous scheme, "without taking into account the distinct index
//! distribution pattern of the DLRM training input". EL-Rec's system view
//! (Figure 9) instead decides *per table* where parameters live. This
//! module implements that planner:
//!
//! * tiny tables stay **dense on the device** — compressing them saves
//!   nothing and costs kernel time (the paper keeps tables under 1M rows
//!   uncompressed);
//! * large tables become **Eff-TT tables**, with the rank chosen from a
//!   ladder under the device-memory budget; hotter tables (by profiled
//!   access share) keep higher ranks, protecting accuracy where gradients
//!   concentrate;
//! * whatever still does not fit is **hosted** behind the parameter
//!   server, coldest tables first, minimizing PS traffic.

use crate::device::DeviceSpec;
use crate::server::HostServer;
use el_core::TtConfig;
use el_dlrm::{DlrmModel, EmbeddingLayer};

/// Where one table's parameters live.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TablePlacement {
    /// Uncompressed, device-resident.
    DenseDevice,
    /// TT-compressed on the device at the given rank.
    TtDevice {
        /// Chosen TT rank.
        rank: usize,
    },
    /// Parameters in host memory behind the parameter server.
    Hosted,
}

/// A complete placement decision.
#[derive(Clone, Debug)]
pub struct PlacementPlan {
    /// One placement per table.
    pub tables: Vec<TablePlacement>,
    /// Device bytes the plan consumes.
    pub device_bytes: usize,
    /// Host bytes the plan consumes.
    pub host_bytes: usize,
}

/// Planner inputs for one table.
#[derive(Clone, Copy, Debug)]
pub struct TableProfile {
    /// Row count.
    pub cardinality: usize,
    /// Fraction of all embedding accesses hitting this table (profiled;
    /// uniform across tables if no profile is available).
    pub access_share: f64,
}

/// Planner configuration.
#[derive(Clone, Debug)]
pub struct PlannerConfig {
    /// Tables whose dense footprint is at most this stay dense.
    pub dense_cutoff_bytes: usize,
    /// Rank ladder, tried from highest (most accurate) to lowest.
    pub rank_ladder: Vec<usize>,
    /// Fraction of HBM the embedding layer may use (the rest is MLPs,
    /// activations, optimizer state).
    pub hbm_fraction: f64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            dense_cutoff_bytes: 4 << 20, // 4 MB
            rank_ladder: vec![128, 64, 32, 16, 8],
            hbm_fraction: 0.5,
        }
    }
}

impl PlacementPlan {
    /// Number of tables in each placement class: `(dense, tt, hosted)`.
    pub fn class_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for t in &self.tables {
            match t {
                TablePlacement::DenseDevice => counts.0 += 1,
                TablePlacement::TtDevice { .. } => counts.1 += 1,
                TablePlacement::Hosted => counts.2 += 1,
            }
        }
        counts
    }
}

/// Plans placements for `profiles` at embedding dimension `dim` on
/// `device`.
pub fn plan_placement(
    profiles: &[TableProfile],
    dim: usize,
    device: &DeviceSpec,
    config: &PlannerConfig,
) -> PlacementPlan {
    assert!(!config.rank_ladder.is_empty(), "need at least one rank");
    let budget = (device.hbm_bytes as f64 * config.hbm_fraction) as usize;

    let dense_bytes = |card: usize| card * dim * 4;
    let tt_bytes = |card: usize, rank: usize| TtConfig::new(card, dim, rank).param_count() * 4;

    let mut placements = vec![TablePlacement::Hosted; profiles.len()];
    let mut device_bytes = 0usize;

    // Small tables first: dense on device, always.
    for (t, p) in profiles.iter().enumerate() {
        if dense_bytes(p.cardinality) <= config.dense_cutoff_bytes {
            placements[t] = TablePlacement::DenseDevice;
            device_bytes += dense_bytes(p.cardinality);
        }
    }

    // Large tables, hottest first: give each the highest rank that still
    // fits the remaining budget; spill to lower rungs, then to the host.
    let mut large: Vec<usize> = profiles
        .iter()
        .enumerate()
        .filter(|(_, p)| dense_bytes(p.cardinality) > config.dense_cutoff_bytes)
        .map(|(t, _)| t)
        .collect();
    large.sort_by(|&a, &b| {
        profiles[b]
            .access_share
            .partial_cmp(&profiles[a].access_share)
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    // Reserve the minimum-rank footprint for every remaining large table
    // so early (hot) tables cannot starve later ones onto the host.
    let min_rank = *config.rank_ladder.last().unwrap();
    let mut reserved: usize =
        large.iter().map(|&t| tt_bytes(profiles[t].cardinality, min_rank)).sum();

    for &t in &large {
        let card = profiles[t].cardinality;
        reserved -= tt_bytes(card, min_rank);
        let mut chosen = None;
        for &rank in &config.rank_ladder {
            let cost = tt_bytes(card, rank);
            if device_bytes + cost + reserved <= budget {
                chosen = Some(rank);
                break;
            }
        }
        match chosen {
            // TT only pays when it actually compresses; mid-sized tables
            // where the cores would match the dense footprint stay dense.
            Some(rank) if tt_bytes(card, rank) * 2 <= dense_bytes(card) => {
                placements[t] = TablePlacement::TtDevice { rank };
                device_bytes += tt_bytes(card, rank);
            }
            Some(_) if device_bytes + dense_bytes(card) + reserved <= budget => {
                placements[t] = TablePlacement::DenseDevice;
                device_bytes += dense_bytes(card);
            }
            Some(rank) => {
                placements[t] = TablePlacement::TtDevice { rank };
                device_bytes += tt_bytes(card, rank);
            }
            None => {
                placements[t] = TablePlacement::Hosted;
            }
        }
    }

    let host_bytes = profiles
        .iter()
        .zip(&placements)
        .filter(|(_, pl)| **pl == TablePlacement::Hosted)
        .map(|(p, _)| dense_bytes(p.cardinality))
        .sum();
    PlacementPlan { tables: placements, device_bytes, host_bytes }
}

/// Uniform profiles when no access statistics are available.
pub fn uniform_profiles(cardinalities: &[usize]) -> Vec<TableProfile> {
    let share = 1.0 / cardinalities.len().max(1) as f64;
    cardinalities
        .iter()
        .map(|&cardinality| TableProfile { cardinality, access_share: share })
        .collect()
}

/// Rewrites a freshly-built model (all tables `Dense`) according to the
/// plan, returning the host server that owns the `Hosted` tables.
///
/// # Panics
/// Panics if the model was not built with `tt_threshold = usize::MAX`
/// (every table dense) or the plan length mismatches.
pub fn apply_plan(
    model: &mut DlrmModel,
    plan: &PlacementPlan,
    dim: usize,
    lr: f32,
    rng: &mut impl rand::Rng,
) -> HostServer {
    assert_eq!(model.num_tables(), plan.tables.len(), "plan/table count mismatch");
    let mut host = Vec::new();
    for (t, placement) in plan.tables.iter().enumerate() {
        match placement {
            TablePlacement::DenseDevice => {}
            TablePlacement::TtDevice { rank } => {
                let card = match &model.tables[t] {
                    EmbeddingLayer::Dense(b) => b.num_rows(),
                    _ => panic!("apply_plan expects a fully dense model"),
                };
                let cfg = TtConfig::new(card, dim, *rank);
                model.tables[t] = EmbeddingLayer::Tt(
                    Box::new(el_core::TtEmbeddingBag::new(&cfg, rng)),
                    el_core::TtWorkspace::new(),
                );
            }
            TablePlacement::Hosted => {
                match std::mem::replace(&mut model.tables[t], EmbeddingLayer::Hosted { dim }) {
                    EmbeddingLayer::Dense(bag) => host.push((t, bag)),
                    _ => panic!("apply_plan expects a fully dense model"),
                }
            }
        }
    }
    HostServer::new(host, lr)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiles(cards: &[usize]) -> Vec<TableProfile> {
        uniform_profiles(cards)
    }

    #[test]
    fn small_tables_stay_dense() {
        let device = DeviceSpec::v100();
        let plan = plan_placement(
            &profiles(&[100, 2000, 50_000_000]),
            64,
            &device,
            &PlannerConfig::default(),
        );
        assert_eq!(plan.tables[0], TablePlacement::DenseDevice);
        assert_eq!(plan.tables[1], TablePlacement::DenseDevice);
        assert!(matches!(plan.tables[2], TablePlacement::TtDevice { .. }));
    }

    #[test]
    fn budget_is_respected() {
        let device = DeviceSpec::tiny(40 << 20); // 40 MB HBM
        let config = PlannerConfig {
            dense_cutoff_bytes: 1 << 20,
            rank_ladder: vec![64, 32, 16, 8],
            hbm_fraction: 0.5,
        };
        let cards = vec![10_000_000usize; 6];
        let plan = plan_placement(&profiles(&cards), 64, &device, &config);
        assert!(plan.device_bytes <= 20 << 20, "over budget: {}", plan.device_bytes);
    }

    #[test]
    fn hot_tables_get_higher_ranks() {
        let device = DeviceSpec::tiny(8 << 20);
        let config = PlannerConfig {
            dense_cutoff_bytes: 1 << 20,
            rank_ladder: vec![64, 16],
            hbm_fraction: 1.0,
        };
        let mut prof = profiles(&[10_000_000, 10_000_000]);
        prof[0].access_share = 0.9;
        prof[1].access_share = 0.1;
        let plan = plan_placement(&prof, 64, &device, &config);
        let rank_of = |t: usize| match plan.tables[t] {
            TablePlacement::TtDevice { rank } => rank,
            _ => 0,
        };
        assert!(
            rank_of(0) >= rank_of(1),
            "hot table should not get a lower rank: {} vs {}",
            rank_of(0),
            rank_of(1)
        );
    }

    #[test]
    fn impossible_budgets_spill_to_host() {
        let device = DeviceSpec::tiny(1 << 20); // 1 MB: nothing fits
        let config =
            PlannerConfig { dense_cutoff_bytes: 1 << 10, rank_ladder: vec![32], hbm_fraction: 0.5 };
        let plan = plan_placement(&profiles(&[50_000_000, 80_000_000]), 128, &device, &config);
        assert_eq!(plan.class_counts(), (0, 0, 2));
        assert!(plan.host_bytes > 0);
    }

    #[test]
    fn min_rank_reservation_prevents_starvation() {
        // Two equally hot huge tables, budget that fits one at high rank OR
        // both at low rank: the planner must not give table A the high rank
        // and push table B to the host.
        let dim = 64;
        let card = 10_000_000usize;
        let high = TtConfig::new(card, dim, 64).param_count() * 4;
        let low = TtConfig::new(card, dim, 8).param_count() * 4;
        assert!(high > 2 * low);
        let device = DeviceSpec::tiny(((high + low) as f64 / 0.5) as usize - 1024);
        let config = PlannerConfig {
            dense_cutoff_bytes: 1 << 20,
            rank_ladder: vec![64, 8],
            hbm_fraction: 0.5,
        };
        let plan = plan_placement(&profiles(&[card, card]), dim, &device, &config);
        let (_, tt, hosted) = plan.class_counts();
        assert_eq!(hosted, 0, "reservation should keep both tables on device: {plan:?}");
        assert_eq!(tt, 2);
    }

    #[test]
    fn tt_is_only_chosen_when_it_compresses() {
        // a mid-sized table where rank-128 cores rival the dense footprint
        // must stay dense when the budget allows
        let device = DeviceSpec::v100();
        let config = PlannerConfig {
            dense_cutoff_bytes: 1 << 20,
            rank_ladder: vec![128],
            hbm_fraction: 0.5,
        };
        let plan = plan_placement(&profiles(&[12_517]), 128, &device, &config);
        assert_eq!(
            plan.tables[0],
            TablePlacement::DenseDevice,
            "non-compressing TT must be rejected: {plan:?}"
        );
    }

    #[test]
    fn apply_plan_builds_a_trainable_hybrid() {
        use el_data::{DatasetSpec, SyntheticDataset};
        use el_dlrm::DlrmConfig;
        use rand::SeedableRng;

        let mut spec = DatasetSpec::toy(3, 4000, 1_000_000);
        spec.num_dense = 4;
        let ds = SyntheticDataset::new(spec, 9);
        let mut cfg = DlrmConfig::for_spec(ds.spec(), 8, usize::MAX, 8);
        cfg.bottom_hidden = vec![16];
        cfg.top_hidden = vec![16];
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut model = el_dlrm::DlrmModel::new(&cfg, &mut rng);

        let plan = PlacementPlan {
            tables: vec![
                TablePlacement::DenseDevice,
                TablePlacement::TtDevice { rank: 8 },
                TablePlacement::Hosted,
            ],
            device_bytes: 0,
            host_bytes: 0,
        };
        let server = apply_plan(&mut model, &plan, 8, 0.05, &mut rng);
        assert_eq!(server.tables.len(), 1);
        assert_eq!(model.hosted_tables(), vec![2]);

        // the hybrid trains end to end through the pipeline
        let config = crate::trainer::PipelineConfig {
            batch_size: 32,
            first_batch: 0,
            num_batches: 3,
            prefetch_depth: 2,
            pipelined: true,
            overlap_analysis: true,
        };
        let report =
            crate::trainer::PipelineTrainer::try_train(model, server, &ds, &config).unwrap();
        assert!(report.losses.iter().all(|l| l.is_finite()));
    }
}
